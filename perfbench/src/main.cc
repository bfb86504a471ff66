/**
 * @file
 * Benchmark driver: `perfbench_driver <mode> [flags]`.
 *
 *   grid    run grid_solo in process
 *   load    drive a running vcache_serve (closed loop, think time)
 *   replay  replay serve_cold's request stream in process, traced
 *   info    print the build identity and SIMD backend
 *
 * Every mode prints one JSON line on stdout; perfbench/run.py turns
 * those into the benchmark's result.
 */

#include <cstdio>
#include <exception>
#include <string>

#include "bench.hh"
#include "grid.hh"
#include "serve.hh"
#include "simd/kernels.hh"
#include "util/buildinfo.hh"
#include "util/cli.hh"

using namespace perfbench;

int
main(int argc, char **argv)
{
    const std::string mode = argc > 1 ? argv[1] : "";
    vcache::ArgParser args("perfbench driver, mode " + mode);
    args.addFlag("workload", "", "workload name");
    args.addFlag("seed", "1", "workload seed");
    args.addFlag("seconds", "10", "measured seconds");
    args.addFlag("trace", "false", "traced run (grid)");
    args.addFlag("work", ".", "scratch directory");
    args.addFlag("port", "0", "vcache_serve port on 127.0.0.1");
    args.addFlag("server-pid", "0", "vcache_serve process id");
    // argv[1] (the mode) stands in for the program name.
    args.parse(argc - 1, argv + 1);

    const std::string workload = args.getString("workload");
    try {
        if (mode == "info") {
            JsonLine out;
            out.str("version", vcache::buildInfoString());
            out.str("simd", vcache::simd::backendName(
                                vcache::simd::activeBackend()));
            std::printf("%s\n", out.render().c_str());
            return 0;
        }
        if (mode == "grid") {
            GridArgs g;
            g.seed = args.getUint("seed");
            g.seconds = args.getDouble("seconds");
            g.trace = args.getBool("trace");
            g.workDir = args.getString("work");
            if (workload != "grid_solo")
                throw std::runtime_error("unknown grid workload '" +
                                         workload + "'");
            return runGrid(g);
        }
        ServeArgs s;
        if (workload != "serve_cold")
            throw std::runtime_error("unknown serve workload '" +
                                     workload + "'");
        s.seed = args.getUint("seed");
        s.port = static_cast<unsigned>(args.getUint("port"));
        s.serverPid = static_cast<int>(args.getUint("server-pid"));
        s.seconds = args.getDouble("seconds");
        s.workDir = args.getString("work");
        if (mode == "load")
            return runLoad(s);
        if (mode == "replay")
            return runReplay(s);
        throw std::runtime_error("unknown mode '" + mode + "'");
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_driver %s: %s\n", mode.c_str(),
                     e.what());
        return 1;
    }
}
