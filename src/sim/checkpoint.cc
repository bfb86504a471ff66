#include "sim/checkpoint.hh"

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string_view>

#include "util/faultinject.hh"
#include "util/json.hh"
#include "util/logging.hh"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#define VCACHE_HAVE_FSYNC 1
#endif

namespace vcache
{

namespace
{

/** Records between fsyncs: bounded loss without per-record fsync cost. */
constexpr unsigned kSyncBatch = 32;

/**
 * A process killed mid-write leaves a torn final line (no trailing
 * newline).  readCheckpoint tolerates that on replay, but appending
 * after it would concatenate the next record onto the fragment,
 * turning it into a mid-file line that a *second* resume rejects as
 * corruption.  Heal the journal before appending by truncating back
 * to the end of the last complete line.  Returns whether any complete
 * lines remain.
 */
Expected<bool>
healTornTail(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f) {
        // Nothing on disk yet; the append will create the file.
        return false;
    }
    long size = 0;
    long keep = 0; // bytes up to and including the last '\n'
    int c;
    while ((c = std::fgetc(f)) != EOF) {
        ++size;
        if (c == '\n')
            keep = size;
    }
    const bool read_err = std::ferror(f) != 0;
    // fclose can clobber errno (it flushes and closes the underlying
    // descriptor), so latch the read failure's code before closing.
    const int read_errno = errno;
    std::fclose(f);
    if (read_err)
        return makeError(Errc::Io, "cannot read checkpoint '" + path +
                                       "': " +
                                       std::strerror(read_errno));
    if (keep == size)
        return size > 0;

    warn("checkpoint '", path, "': dropping torn final line before "
         "appending");
#if defined(VCACHE_HAVE_FSYNC)
    if (::truncate(path.c_str(), static_cast<off_t>(keep)) != 0)
        return makeError(Errc::Io, "cannot truncate torn checkpoint '" +
                                       path +
                                       "': " + std::strerror(errno));
#else
    // Portable fallback: rewrite the intact prefix.
    std::string prefix(static_cast<std::size_t>(keep), '\0');
    std::FILE *in = std::fopen(path.c_str(), "rb");
    if (!in || std::fread(prefix.data(), 1, prefix.size(), in) !=
                   prefix.size()) {
        if (in)
            std::fclose(in);
        return makeError(Errc::Io, "cannot re-read checkpoint '" +
                                       path + "'");
    }
    std::fclose(in);
    std::FILE *out = std::fopen(path.c_str(), "wb");
    if (!out || std::fwrite(prefix.data(), 1, prefix.size(), out) !=
                    prefix.size()) {
        if (out)
            std::fclose(out);
        return makeError(Errc::Io, "cannot rewrite checkpoint '" +
                                       path + "'");
    }
    std::fclose(out);
#endif
    return keep > 0;
}

} // namespace

CheckpointWriter::CheckpointWriter(std::FILE *f, std::string path)
    : file(f), file_path(std::move(path))
{
}

CheckpointWriter::~CheckpointWriter()
{
    if (!file)
        return;
    (void)flush();
    std::fclose(file);
}

Expected<std::unique_ptr<CheckpointWriter>>
CheckpointWriter::open(const std::string &path,
                       const CheckpointHeader &header, bool append)
{
    if (append) {
        auto healed = healTornTail(path);
        if (!healed.ok())
            return healed.error();
        // Healing can leave an empty file (nothing but a torn line);
        // fall back to writing a fresh header.
        if (!healed.value())
            append = false;
    }
    std::FILE *f = std::fopen(path.c_str(), append ? "ab" : "wb");
    if (!f)
        return makeError(Errc::Io, "cannot open checkpoint '" + path +
                                       "': " + std::strerror(errno));
    auto writer = std::unique_ptr<CheckpointWriter>(
        new CheckpointWriter(f, path));
    if (!append) {
        std::ostringstream os;
        os << "{\"vcache_checkpoint\":1,\"label\":\""
           << json::escape(header.label) << "\",\"points\":"
           << header.points << ",\"seed\":" << header.seed << "}";
        auto wrote = writer->writeLine(os.str());
        if (!wrote.ok())
            return wrote.error();
        auto synced = writer->flush();
        if (!synced.ok())
            return synced.error();
    }
    return writer;
}

Expected<void>
CheckpointWriter::writeLine(const std::string &line)
{
    std::lock_guard<std::mutex> lock(mtx);
    VCACHE_FAULT_POINT("checkpoint.write");
    if (std::fwrite(line.data(), 1, line.size(), file) != line.size() ||
        std::fputc('\n', file) == EOF)
        return makeError(Errc::Io, "short write to checkpoint '" +
                                       file_path + "'");
    if (++unsynced >= kSyncBatch) {
        unsynced = 0;
        if (std::fflush(file) != 0)
            return makeError(Errc::Io, "cannot flush checkpoint '" +
                                           file_path + "'");
#if defined(VCACHE_HAVE_FSYNC)
        (void)::fsync(fileno(file));
#endif
    }
    return {};
}

Expected<void>
CheckpointWriter::recordDone(std::uint64_t point,
                             const std::vector<std::string> &row)
{
    std::ostringstream os;
    os << "{\"point\":" << point << ",\"status\":\"ok\",\"row\":[";
    for (std::size_t i = 0; i < row.size(); ++i) {
        if (i)
            os << ',';
        os << '"' << json::escape(row[i]) << '"';
    }
    os << "]}";
    return writeLine(os.str());
}

Expected<void>
CheckpointWriter::recordFailed(std::uint64_t point, const Error &err,
                               unsigned attempts)
{
    std::ostringstream os;
    os << "{\"point\":" << point << ",\"status\":\"failed\",\"code\":\""
       << errcName(err.code) << "\",\"attempts\":" << attempts
       << ",\"error\":\"" << json::escape(err.describe()) << "\"}";
    return writeLine(os.str());
}

Expected<void>
CheckpointWriter::flush()
{
    std::lock_guard<std::mutex> lock(mtx);
    unsynced = 0;
    if (std::fflush(file) != 0)
        return makeError(Errc::Io, "cannot flush checkpoint '" +
                                       file_path + "'");
#if defined(VCACHE_HAVE_FSYNC)
    (void)::fsync(fileno(file));
#endif
    return {};
}

namespace
{

/** The member `key` of `obj`; a null value when it is absent. */
const json::Value &
member(const json::Object &obj, std::string_view key)
{
    static const json::Value absent;
    const auto it = obj.find(key);
    return it == obj.end() ? absent : it->second;
}

/** Whether `obj` has exactly the members `keys`, in any order. */
bool
hasExactly(const json::Object &obj,
           std::initializer_list<std::string_view> keys)
{
    if (obj.size() != keys.size())
        return false;
    for (const auto key : keys)
        if (!obj.count(key))
            return false;
    return true;
}

bool
readHeader(const json::Object &obj, CheckpointHeader &header)
{
    if (!hasExactly(obj, {"vcache_checkpoint", "label", "points",
                          "seed"}))
        return false;
    const auto version = member(obj, "vcache_checkpoint").asUint();
    auto label = member(obj, "label").asString();
    const auto points = member(obj, "points").asUint();
    const auto seed = member(obj, "seed").asUint();
    if (version != 1u || !label || !points || !seed)
        return false;
    header = {std::move(*label), *points, *seed};
    return true;
}

/** Apply one "ok" or "failed" record; false when it is malformed. */
bool
readRecord(json::Object &obj, CheckpointReplay &replay)
{
    const auto point = member(obj, "point").asUint();
    const auto status = member(obj, "status").asString();
    if (!point || !status)
        return false;
    const bool ok = *status == "ok" &&
                    hasExactly(obj, {"point", "status", "row"}) &&
                    obj["row"].kind == json::Value::Kind::StringArray;
    const bool failed = *status == "failed" &&
                        hasExactly(obj, {"point", "status", "code",
                                         "attempts", "error"}) &&
                        member(obj, "code").asString() &&
                        member(obj, "attempts").asUint() &&
                        member(obj, "error").asString();
    if (!ok && !failed)
        return false;
    if (replay.done.count(*point) || replay.failed.count(*point))
        ++replay.duplicates;
    if (ok) {
        replay.done[*point] = std::move(obj["row"].items);
        replay.failed.erase(*point);
    } else {
        replay.failed.insert(*point);
        replay.done.erase(*point);
    }
    return true;
}

} // namespace

Expected<CheckpointReplay>
readCheckpoint(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return makeError(Errc::Io, "cannot open checkpoint '" + path +
                                       "' for resume");

    CheckpointReplay replay;
    std::string line;
    std::size_t line_no = 0;
    bool saw_header = false;

    while (std::getline(in, line)) {
        ++line_no;
        if (line.empty())
            continue;

        auto obj = json::parseObject(line);
        bool parsed = false;
        if (obj.ok() && line_no == 1)
            parsed = saw_header = readHeader(obj.value(), replay.header);
        else if (obj.ok())
            parsed = readRecord(obj.value(), replay);

        if (!parsed) {
            // A torn final line is the expected signature of a killed
            // process; anything earlier is real corruption.  getline
            // sets eofbit only when the line ran out of file before a
            // terminating '\n', so a complete (newline-terminated)
            // final record that fails to parse is corruption too --
            // the writer never emits a record without its newline.
            if (in.eof()) {
                warn("checkpoint '", path, "': ignoring torn final "
                     "line ", line_no);
                break;
            }
            return makeError(Errc::Io,
                             "checkpoint '" + path + "' line " +
                                 std::to_string(line_no) +
                                 " is corrupt");
        }
    }

    if (!saw_header)
        return makeError(Errc::Io, "checkpoint '" + path +
                                       "' has no valid header");
    return replay;
}

Expected<void>
checkResumeCompatible(const CheckpointReplay &replay,
                      const CheckpointHeader &expected)
{
    const CheckpointHeader &h = replay.header;
    if (h.label != expected.label)
        return makeError(Errc::InvalidConfig,
                         "checkpoint label '" + h.label +
                             "' does not match sweep '" +
                             expected.label + "'");
    if (h.points != expected.points)
        return makeError(Errc::InvalidConfig,
                         "checkpoint has " + std::to_string(h.points) +
                             " points but the sweep has " +
                             std::to_string(expected.points) +
                             " (grid changed?)");
    if (h.seed != expected.seed)
        return makeError(Errc::InvalidConfig,
                         "checkpoint seed " + std::to_string(h.seed) +
                             " does not match --seed " +
                             std::to_string(expected.seed));
    return {};
}

} // namespace vcache
