/**
 * @file
 * Section 4 "Sub-block Accesses": the conflict-free blocking rule.
 *
 * For each leading dimension P, print the paper's maximal blocking
 * (b1, b2), its cache utilisation, and the enumerated self-conflicts
 * in the prime and direct caches -- plus trace-driven miss ratios of
 * a twice-swept sub-block (second sweep should be all hits when
 * conflict-free).
 */

#include <iostream>

#include "analytic/subblock_model.hh"
#include "cache/mapped.hh"
#include "common.hh"
#include "core/defaults.hh"
#include "sim/runner.hh"
#include "trace/subblock.hh"
#include "util/table.hh"

int
main()
{
    using namespace vcache;

    const MachineParams machine = paperMachineM32();
    banner("Sub-block table (Section 4)",
           "conflict-free blocking b1 <= min(P mod C, C - P mod C), "
           "b2 <= floor(C/b1); prime cache utilisation -> 1",
           machine);

    Table table({"P", "b1", "b2", "util%", "prime conflicts",
                 "direct conflicts", "prime resweep miss%",
                 "direct resweep miss%"});

    for (std::uint64_t p :
         {100ull, 1000ull, 1024ull, 4096ull, 5000ull, 8191ull,
          8192ull, 10000ull, 123456ull}) {
        const auto choice = chooseConflictFreeBlocking(p, 8191);
        if (choice.b1 == 0) {
            table.addRow(p, "-", "-", "-", "-", "-", "-", "-");
            continue;
        }

        const auto prime_conf = countSubblockConflicts(
            p, choice.b1, choice.b2, machine, CacheScheme::Prime);
        const auto direct_conf = countSubblockConflicts(
            p, choice.b1, choice.b2, machine, CacheScheme::Direct);

        // Trace: sweep the block twice; misses on the second sweep
        // are pure interference.
        SubblockParams sp{p, choice.b1, choice.b2, 0, 2};
        const auto trace = generateSubblockTrace(sp);
        const AddressLayout layout(0, 13, 32);
        PrimeMappedCache prime(layout);
        DirectMappedCache direct(layout);
        const auto ps = runTraceThroughCache(prime, trace);
        const auto ds = runTraceThroughCache(direct, trace);
        const double n =
            static_cast<double>(choice.b1 * choice.b2);
        const double prime_miss2 =
            (static_cast<double>(ps.misses) - n) / n * 100.0;
        const double direct_miss2 =
            (static_cast<double>(ds.misses) - n) / n * 100.0;

        table.addRow(p, choice.b1, choice.b2,
                     100.0 * choice.utilization(8191), prime_conf,
                     direct_conf, prime_miss2, direct_miss2);
    }
    table.print(std::cout);

    std::cout << "\nNote (DESIGN.md): the rule as stated is only "
                 "sufficient at the maximal b1;\nsub-maximal b1 with "
                 "b2 = floor(C/b1) can wrap around the modulus:\n";
    Table gap({"P", "b1", "b2", "rule satisfied", "prime conflicts"});
    const auto conf = countSubblockConflicts(1024, 64, 64, machine,
                                             CacheScheme::Prime);
    gap.addRow(1024, 64, 64,
               satisfiesConflictFreeRule(1024, 64, 64, 8191) ? "yes"
                                                             : "no",
               conf);
    gap.print(std::cout);
    return 0;
}
