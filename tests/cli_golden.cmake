# CLI goldens: run one h2p_cli command in a fresh working directory and
# byte-compare its stdout with docs/results/cli/<case>.txt.  They pin the
# plan, graph-plan, simulate and compare lowerings end to end.
#
#   cmake -DCLI=<h2p_cli> -DCASE=<case> -DRESULTS_DIR=<repo>/docs/results
#         -DWORK_DIR=<scratch dir> -P tests/cli_golden.cmake
#
# Cases:
#   plan         plan --models resnet50,bert,squeezenet --out p.json
#   plan_graphs  plan --graphs hybrid_attn_cell
#   simulate     simulate --plan p.json --models resnet50,bert,squeezenet,
#                on the plan the `plan` case writes (made here first)
#   compare      compare --models resnet50,bert,squeezenet,mobilenetv2,yolov4
#
# To regenerate after an intended change, run the command from the case
# list in an empty directory and redirect stdout to the golden.  On a
# mismatch the actual output is left in WORK_DIR/<case>.txt.

foreach(var CLI CASE RESULTS_DIR WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cli_golden: -D${var}=... is required")
  endif()
endforeach()
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(models resnet50,bert,squeezenet)
set(plan_args plan --models ${models} --out p.json)
if(CASE STREQUAL "plan")
  set(args ${plan_args})
elseif(CASE STREQUAL "plan_graphs")
  set(args plan --graphs hybrid_attn_cell)
elseif(CASE STREQUAL "simulate")
  execute_process(COMMAND "${CLI}" ${plan_args}
                  WORKING_DIRECTORY "${WORK_DIR}"
                  OUTPUT_QUIET
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "cli_golden: `plan` for the simulate case exited ${rc}")
  endif()
  set(args simulate --plan p.json --models ${models})
elseif(CASE STREQUAL "compare")
  set(args compare --models resnet50,bert,squeezenet,mobilenetv2,yolov4)
else()
  message(FATAL_ERROR "cli_golden: unknown case ${CASE}")
endif()

execute_process(COMMAND "${CLI}" ${args}
                WORKING_DIRECTORY "${WORK_DIR}"
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE rc)
file(WRITE "${WORK_DIR}/${CASE}.txt" "${actual}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "cli_golden: ${CASE} exited ${rc}")
endif()
set(golden_file "${RESULTS_DIR}/cli/${CASE}.txt")
file(READ "${golden_file}" golden)
if(NOT actual STREQUAL golden)
  message(FATAL_ERROR "cli_golden: ${CASE} stdout differs from ${golden_file} "
                      "(actual in ${WORK_DIR}/${CASE}.txt)")
endif()
message(STATUS "cli golden: ${CASE} matches")
