# Differential golden check for a bench binary, run as a ctest.
#
# Runs BENCH at a fixed reduced scale (LGSIM_BENCH_SCALE=0.05) and compares
# the SHA-256 of its stdout rows against a recorded hash; with TRACE_SHA set
# it also runs with --trace and compares the Chrome-trace bytes.
#
# fig08_golden_j1/j4 pin bench_fig08_stress against hashes recorded from the
# pre-overhaul kernel (std::function callbacks + std::priority_queue + lazy
# remembered-id cancellation). The trace embeds the sim.* event-loop
# counters, so this pins three things at once: the (time, sequence) execution
# order, the per-event trace stream, and the counter arithmetic
# (cancel_backlog / cancelled_skipped / peak_heap_depth). Any kernel change
# that reorders same-timestamp events or drifts a counter shows up as a hash
# mismatch here long before it corrupts a figure. fig09_golden and
# fig21_golden pin the run_timeline harness (bench_fig09_dctcp_timeline,
# bench_fig21_cubic_bbr) by stdout alone.
#
# Usage:
#   cmake -DBENCH=<path to bench binary> -DJOBS=<n> -DWORKDIR=<dir>
#         -DSTDOUT_SHA=<sha256> [-DTRACE_SHA=<sha256>]
#         -P fig08_golden_check.cmake

foreach(var BENCH JOBS WORKDIR STDOUT_SHA)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "golden_check: ${var} not set")
  endif()
endforeach()

get_filename_component(bench_name ${BENCH} NAME_WE)
set(ENV{LGSIM_BENCH_SCALE} 0.05)
set(ENV{LGSIM_BENCH_JOBS} ${JOBS})
set(stdout_file ${WORKDIR}/${bench_name}_golden_j${JOBS}.stdout)
set(trace_file ${WORKDIR}/${bench_name}_golden_j${JOBS}.trace.json)

set(args)
if(DEFINED TRACE_SHA)
  set(args --trace=${trace_file})
endif()
execute_process(
    COMMAND ${BENCH} ${args}
    OUTPUT_FILE ${stdout_file}
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "golden_check: ${BENCH} exited with ${rc}")
endif()

file(SHA256 ${stdout_file} stdout_sha)
if(NOT stdout_sha STREQUAL STDOUT_SHA)
  message(FATAL_ERROR "golden_check (${bench_name}, jobs=${JOBS}): stdout "
      "diverged from the golden\n  expected ${STDOUT_SHA}\n  got      "
      "${stdout_sha}\n  kept: ${stdout_file}")
endif()
if(DEFINED TRACE_SHA)
  file(SHA256 ${trace_file} trace_sha)
  if(NOT trace_sha STREQUAL TRACE_SHA)
    message(FATAL_ERROR "golden_check (${bench_name}, jobs=${JOBS}): trace "
        "bytes diverged from the golden (event order or sim.* counters "
        "drifted)\n  expected ${TRACE_SHA}\n  got      ${trace_sha}\n"
        "  kept: ${trace_file}")
  endif()
  message(STATUS "${bench_name} golden (jobs=${JOBS}): stdout+trace byte-identical")
else()
  message(STATUS "${bench_name} golden (jobs=${JOBS}): stdout byte-identical")
endif()
