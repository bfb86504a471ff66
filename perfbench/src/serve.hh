/**
 * @file
 * Serve workload (serve_cold): a native load generator for a running
 * vcache_serve, and the in-process replay of the same request stream
 * that the traced run times layer by layer.
 */

#ifndef PERFBENCH_SERVE_HH
#define PERFBENCH_SERVE_HH

#include <cstdint>
#include <string>

namespace perfbench
{

struct ServeArgs
{
    std::uint64_t seed = 1;
    /** Server port on 127.0.0.1 (load). */
    unsigned port = 0;
    /** Server process id (load), whose CPU clock the figures use. */
    int serverPid = 0;
    /** Measured seconds (load), or replayed seconds (replay). */
    double seconds = 10.0;
    /** Scratch directory for the trace. */
    std::string workDir;
};

/**
 * Closed loop with think time over one connection: one burst in flight
 * at a time, each timed from its send to its last response on the wall
 * clock and on the server's CPU clock.  Checks every response and a
 * seeded sample of payloads; prints one JSON line.
 */
int runLoad(const ServeArgs &args);

/**
 * Replay the request stream in process through parse -> memo
 * lookup -> batched evaluation -> render -> memo insert, burst by
 * burst, alternately untraced (evaluateBatch) and with spans around
 * the decomposed replica; prints one JSON line of layer metrics.
 */
int runReplay(const ServeArgs &args);

} // namespace perfbench

#endif // PERFBENCH_SERVE_HH
