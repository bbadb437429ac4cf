# Figure goldens: run every figure and ablation binary in a fresh working
# directory, byte-compare its stdout with docs/results/figures/<binary>.txt,
# and compare the Fig 7 CSVs the runs write with docs/results/.  Only the
# host-time parts of bench_ablation_online_replan are masked, on both sides:
# its "Scheduler wall time (ms)" column and the "dropped N.Nx" sentence.
#
#   cmake -DBENCH_DIR=<build>/bench -DBENCHES=<a,b,...>
#         -DRESULTS_DIR=<repo>/docs/results -DWORK_DIR=<scratch dir>
#         -P tests/figures_golden.cmake
#
# On a mismatch the actual output is left in WORK_DIR next to the golden's
# name, so `diff -u docs/results/figures/<b>.txt <WORK_DIR>/<b>.txt` shows it.

foreach(var BENCH_DIR BENCHES RESULTS_DIR WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "figures_golden: -D${var}=... is required")
  endif()
endforeach()

function(mask_host_time text out_var)
  # Rows of the plan-cache table: keep Path, Planner runs, Cache hits and
  # Makespan; blank the trailing wall-time column.
  string(REGEX REPLACE
         "(\n(uncached|cached) +[0-9]+ +[0-9]+ +[0-9.]+ +)[^\n]*"
         "\\1<host time>" text "${text}")
  string(REGEX REPLACE "dropped [0-9.]+x" "dropped <host time>x"
         text "${text}")
  set(${out_var} "${text}" PARENT_SCOPE)
endfunction()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
string(REPLACE "," ";" benches "${BENCHES}")

set(failures "")
foreach(bench IN LISTS benches)
  execute_process(COMMAND "${BENCH_DIR}/${bench}"
                  WORKING_DIRECTORY "${WORK_DIR}"
                  OUTPUT_VARIABLE actual
                  RESULT_VARIABLE rc)
  file(WRITE "${WORK_DIR}/${bench}.txt" "${actual}")
  if(NOT rc EQUAL 0)
    list(APPEND failures "${bench}: exit status ${rc}")
    continue()
  endif()
  set(golden_file "${RESULTS_DIR}/figures/${bench}.txt")
  if(NOT EXISTS "${golden_file}")
    list(APPEND failures "${bench}: no golden at ${golden_file}")
    continue()
  endif()
  file(READ "${golden_file}" golden)
  if(bench STREQUAL "bench_ablation_online_replan")
    mask_host_time("${golden}" golden)
    mask_host_time("${actual}" actual)
  endif()
  if(NOT actual STREQUAL golden)
    list(APPEND failures "${bench}: stdout differs from ${golden_file}")
  endif()
endforeach()

file(GLOB csvs RELATIVE "${RESULTS_DIR}" "${RESULTS_DIR}/h2p_fig7_*.csv")
if(NOT csvs)
  list(APPEND failures "no h2p_fig7_*.csv in ${RESULTS_DIR}")
endif()
foreach(csv IN LISTS csvs)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                          "${RESULTS_DIR}/${csv}" "${WORK_DIR}/${csv}"
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    list(APPEND failures "${csv}: differs from ${RESULTS_DIR}/${csv}")
  endif()
endforeach()

if(failures)
  list(JOIN failures "\n  " report)
  message(FATAL_ERROR "figure goldens differ (outputs in ${WORK_DIR}):\n  "
                      "${report}")
endif()
list(LENGTH benches n)
message(STATUS "figure goldens: ${n} binaries and the Fig 7 CSVs match")
