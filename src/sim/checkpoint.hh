/**
 * @file
 * Append-only JSON-lines checkpoint journal for sweeps.
 *
 * A multi-hour grid sweep must survive being killed: every completed
 * point is journalled as one self-contained line, fsync'd in batches,
 * so a crashed or interrupted run can --resume, replay the journal,
 * skip what is done and still emit a final CSV byte-identical to an
 * uninterrupted run.
 *
 * Format (one JSON object per line):
 *
 *   {"vcache_checkpoint":1,"label":"sweep_grid","points":160,"seed":1}
 *   {"point":3,"status":"ok","row":["32","4","256","..."]}
 *   {"point":7,"status":"failed","code":"Timeout","attempts":3,
 *    "error":"..."}
 *
 * Replay reads each line with util/json: member order is free, but
 * a missing or unknown member, or an integer beyond 64 bits, makes
 * the line corrupt.  The header pins the sweep identity; resuming
 * against a journal whose label/points/seed differ is an
 * InvalidConfig error rather than a silently-wrong CSV.  A torn
 * final line (the process died
 * mid-write) is ignored on replay and truncated away before a resume
 * appends, so repeated crash/resume cycles never leave mid-file
 * corruption; corruption anywhere else is an error.  The last record
 * for a point wins, so a point that failed in
 * one run and succeeded after a resume replays as done.
 */

#ifndef VCACHE_SIM_CHECKPOINT_HH
#define VCACHE_SIM_CHECKPOINT_HH

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "util/result.hh"

namespace vcache
{

/** Identity of the sweep a journal belongs to. */
struct CheckpointHeader
{
    std::string label;
    std::uint64_t points = 0;
    std::uint64_t seed = 0;
};

/** Append-only journal writer; safe to call from sweep workers. */
class CheckpointWriter
{
  public:
    /**
     * Open a journal.  With `append` false the file is truncated and
     * a fresh header written; with true (resume) records append after
     * the existing content, first truncating away any torn final line
     * a killed run left behind.
     */
    static Expected<std::unique_ptr<CheckpointWriter>>
    open(const std::string &path, const CheckpointHeader &header,
         bool append);

    ~CheckpointWriter();

    CheckpointWriter(const CheckpointWriter &) = delete;
    CheckpointWriter &operator=(const CheckpointWriter &) = delete;

    /** Journal one completed point with its CSV row. */
    Expected<void> recordDone(std::uint64_t point,
                              const std::vector<std::string> &row);

    /** Journal one permanently failed point. */
    Expected<void> recordFailed(std::uint64_t point, const Error &err,
                                unsigned attempts);

    /** Flush buffered records and fsync the journal. */
    Expected<void> flush();

    const std::string &path() const { return file_path; }

  private:
    CheckpointWriter(std::FILE *f, std::string path);

    Expected<void> writeLine(const std::string &line);

    std::FILE *file;
    std::string file_path;
    std::mutex mtx;
    /** Records since the last fsync; batched for throughput. */
    unsigned unsynced = 0;
};

/** Everything a --resume replay learns from a journal. */
struct CheckpointReplay
{
    CheckpointHeader header;
    /** point -> CSV row of every point whose last record is "ok". */
    std::map<std::uint64_t, std::vector<std::string>> done;
    /** Points whose last record is "failed" (they re-run on resume). */
    std::set<std::uint64_t> failed;
    /**
     * Records that re-journalled an already-seen point (later record
     * wins).  A handful is normal -- a point that failed and then
     * succeeded after a resume, or a crash between journal append and
     * the dedup of a re-run -- but a large count means the journal
     * and the sweep disagree about identity, so the sweep surfaces it
     * as a checkpoint.duplicates counter instead of absorbing it
     * silently.
     */
    std::uint64_t duplicates = 0;
};

/** Parse a journal; torn final lines are tolerated (see file doc). */
Expected<CheckpointReplay> readCheckpoint(const std::string &path);

/**
 * Validate a replay against the resuming sweep's identity; the error
 * names the first mismatching field.
 */
Expected<void> checkResumeCompatible(const CheckpointReplay &replay,
                                     const CheckpointHeader &expected);

} // namespace vcache

#endif // VCACHE_SIM_CHECKPOINT_HH
