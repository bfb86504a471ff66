/**
 * @file
 * Umbrella header: the full public API of the prime-mapped-cache
 * library.
 *
 * Include this from applications; individual module headers remain
 * available for finer-grained dependencies.
 */

#ifndef VCACHE_CORE_VCACHE_HH
#define VCACHE_CORE_VCACHE_HH

// Number theory substrate.
#include "numtheory/congruence.hh"
#include "numtheory/divisors.hh"
#include "numtheory/gcd.hh"
#include "numtheory/mersenne.hh"
#include "numtheory/primality.hh"

// Address generation hardware model (Figure 1).
#include "address/eac_adder.hh"
#include "address/fields.hh"
#include "address/index_gen.hh"

// Cache framework.
#include "cache/cache.hh"
#include "cache/classify.hh"
#include "cache/factory.hh"
#include "cache/mapped.hh"
#include "cache/prefetch.hh"
#include "cache/replacement.hh"
#include "cache/set_assoc.hh"

// Interleaved memory substrate.
#include "memory/bus.hh"
#include "memory/interleaved.hh"
#include "memory/sweep_model.hh"

// Workload traces.
#include "trace/access.hh"
#include "trace/banded.hh"
#include "trace/fft.hh"
#include "trace/loader.hh"
#include "trace/lu.hh"
#include "trace/matmul.hh"
#include "trace/matrix_access.hh"
#include "trace/multistride.hh"
#include "trace/subblock.hh"
#include "trace/transpose.hh"
#include "trace/vcm.hh"

// Analytical model (Equations 1-8).
#include "analytic/cc_model.hh"
#include "analytic/fft_model.hh"
#include "analytic/machine.hh"
#include "analytic/mm_model.hh"
#include "analytic/model.hh"
#include "analytic/presets.hh"
#include "analytic/subblock_model.hh"

// Trace-driven simulators.
#include "sim/cc_sim.hh"
#include "sim/mm_sim.hh"
#include "sim/observe.hh"
#include "sim/result.hh"
#include "sim/runner.hh"
#include "sim/sweep.hh"

// Observability: observer policies, counters, traces, interval stats.
#include "obs/forensics.hh"
#include "obs/histogram.hh"
#include "obs/instrument.hh"
#include "obs/interval.hh"
#include "obs/observer.hh"
#include "obs/registry.hh"
#include "obs/trace_events.hh"
#include "obs/tracing_observer.hh"

// Vector processing unit (functional ISA model).
#include "vpu/chime.hh"
#include "vpu/isa.hh"
#include "vpu/machine.hh"
#include "vpu/program.hh"

// Experiment defaults and helpers.
#include "core/comparison.hh"
#include "core/configio.hh"
#include "core/reporting.hh"
#include "core/defaults.hh"

// Utilities.
#include "util/cli.hh"
#include "util/config.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/statdump.hh"
#include "util/stats.hh"
#include "util/strides.hh"
#include "util/table.hh"
#include "util/types.hh"

#endif // VCACHE_CORE_VCACHE_HH
