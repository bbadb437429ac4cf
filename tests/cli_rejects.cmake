# Bad CLI input must be rejected cleanly: run h2p_cli on one malformed
# input and require exit status 1 (not a crash, not a silent default) and
# a stderr message matching EXPECT.
#
#   cmake -DCLI=<h2p_cli> -DCASE=<case> -DWORK_DIR=<scratch dir>
#         -P tests/cli_rejects.cmake
#
# Cases:
#   window_zero        online --window 0
#   window_not_number  online --window abc
#   faults_bad_kind    online --faults <script with an unknown event kind>
#   faults_negative_proc
#                      online --faults <script with "proc": -1>
#   faults_fractional_proc
#                      online --faults <script with "proc": 2.5>
#   faults_unknown_proc
#                      online --faults <script naming processor 7 of 4>
#   deep_json          simulate --plan <array nested 200000 levels deep>
#   plan_threads       plan --threads 2 (plans are single-threaded)
#   online_threads_without_async
#                      online --threads 2 without --async
#   online_unknown_flag
#                      online --bogus
#   online_drift_out   online --drift-out x (the flag was removed)
#   plan_out_unwritable
#                      plan --out <a file in a missing directory>
#   online_metrics_out_unwritable
#                      online --metrics-out <a file in a missing directory>
#   plan_trace_unwritable
#                      plan --trace <a file in a missing directory>
#   plan_trace_out_unwritable
#                      plan --trace-out <a file in a missing directory>
#   online_log_out_unwritable
#                      online --log-out <a file in a missing directory>
#   simulate_fractional_model_index
#                      simulate --plan <plan with "model_index": 2.5>
#   simulate_negative_num_stages
#                      simulate --plan <plan with "num_stages": -1>
#   simulate_overlapping_slices
#                      simulate --plan <plan whose slices run layers 5-9
#                      twice>; must also print no timeline
#   soc_json_no_processors
#                      plan --soc-json <SoC with "processors": []>
#   soc_json_negative_rate
#                      plan --soc-json <kirin990 export with
#                      processors[0].peak_gflops = -5>
#   socs_export_unknown
#                      socs --export foo
#   soc_unknown_name   plan --soc foo
#   soc_json_missing_file
#                      plan --soc-json <a file that does not exist>

foreach(var CLI CASE WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cli_rejects: -D${var}=... is required")
  endif()
endforeach()
file(MAKE_DIRECTORY "${WORK_DIR}")

set(online online --models resnet50,squeezenet)
if(CASE STREQUAL "window_zero")
  set(args ${online} --window 0)
  set(expect "--window: expected a positive integer, got \"0\"")
elseif(CASE STREQUAL "window_not_number")
  set(args ${online} --window abc)
  set(expect "--window: expected a positive integer, got \"abc\"")
elseif(CASE STREQUAL "faults_bad_kind")
  set(script "${WORK_DIR}/bad_kind_faults.json")
  file(WRITE "${script}"
       "{\"events\": [{\"kind\": \"meteor\", \"proc\": 0, "
       "\"begin_ms\": 10, \"end_ms\": null}]}\n")
  set(args ${online} --faults "${script}")
  set(expect "unknown kind 'meteor'")
elseif(CASE MATCHES "^faults_(negative|fractional|unknown)_proc$")
  if(CASE STREQUAL "faults_negative_proc")
    set(proc -1)
    set(expect "event 1: \"proc\" must be an integer in [0, 64), got -1")
  elseif(CASE STREQUAL "faults_fractional_proc")
    set(proc 2.5)
    set(expect "event 1: \"proc\" must be an integer in [0, 64), got 2.5")
  else()
    set(proc 7)
    set(expect "--faults: event 1 names processor 7, but Kirin990 has 4")
  endif()
  # The bad event is second in the file but sorts first (it begins
  # earlier): errors must name its position in the file.
  set(script "${WORK_DIR}/${CASE}.json")
  file(WRITE "${script}"
       "{\"events\": [{\"kind\": \"slowdown\", \"proc\": 0, "
       "\"begin_ms\": 10, \"end_ms\": 20, \"factor\": 0.5}, "
       "{\"kind\": \"dropout\", \"proc\": ${proc}, "
       "\"begin_ms\": 0, \"end_ms\": null}]}\n")
  set(args ${online} --faults "${script}")
elseif(CASE STREQUAL "deep_json")
  set(plan "${WORK_DIR}/deep.json")
  string(REPEAT "[" 200000 deep)
  file(WRITE "${plan}" "${deep}")
  set(args simulate --plan "${plan}" --models squeezenet)
  set(expect "nesting deeper than 256 levels")
elseif(CASE STREQUAL "plan_threads")
  set(args plan --models resnet50,squeezenet --threads 2)
  set(expect "plan: unknown flag --threads")
elseif(CASE STREQUAL "online_threads_without_async")
  set(args ${online} --threads 2)
  set(expect "online: --threads requires --async")
elseif(CASE STREQUAL "online_unknown_flag")
  set(args ${online} --bogus)
  set(expect "online: unknown flag --bogus")
elseif(CASE STREQUAL "online_drift_out")
  set(args ${online} --drift-out x)
  set(expect "online: unknown flag --drift-out")
elseif(CASE STREQUAL "plan_out_unwritable")
  set(path "${WORK_DIR}/missing/p.json")
  set(args plan --models resnet50,squeezenet --out "${path}")
  set(expect "plan: --out: cannot write \"${path}\"")
elseif(CASE STREQUAL "online_metrics_out_unwritable")
  set(path "${WORK_DIR}/missing/m.json")
  set(args ${online} --metrics-out "${path}")
  set(expect "online: --metrics-out: cannot write \"${path}\"")
elseif(CASE STREQUAL "plan_trace_unwritable")
  set(path "${WORK_DIR}/missing/t.json")
  set(args plan --models resnet50,squeezenet --trace "${path}")
  set(expect "plan: --trace: cannot write \"${path}\"")
elseif(CASE STREQUAL "plan_trace_out_unwritable")
  set(path "${WORK_DIR}/missing/t.json")
  set(args plan --models resnet50,squeezenet --trace-out "${path}")
  set(expect "plan: --trace-out: cannot write \"${path}\"")
elseif(CASE STREQUAL "online_log_out_unwritable")
  set(path "${WORK_DIR}/missing/log.jsonl")
  set(args ${online} --log-out "${path}")
  set(expect "online: --log-out: cannot write \"${path}\"")
elseif(CASE STREQUAL "simulate_overlapping_slices")
  set(plan "${WORK_DIR}/${CASE}.json")
  file(WRITE "${plan}"
       "{\"num_stages\": 4, \"models\": ["
       "{\"model_index\": 0, \"high_contention\": false, "
       "\"slices\": [[0, 10], [12, 5], [5, 8], [8, 12]]}]}\n")
  set(args simulate --plan "${plan}" --models squeezenet)
  set(expect "compile: slot 0's slices overlap, run backwards or leave a gap")
  set(expect_no_stdout TRUE)
elseif(CASE STREQUAL "soc_json_no_processors")
  set(soc "${WORK_DIR}/${CASE}.json")
  file(WRITE "${soc}"
       "{\"name\": \"empty\", \"bus_bw_gbps\": 30, "
       "\"mem_capacity_bytes\": 8e9, \"available_bytes\": 4e9, "
       "\"processors\": [], \"mem_states\": []}\n")
  set(args plan --models squeezenet --soc-json "${soc}")
  set(expect "soc_from_json: \"processors\" must not be empty")
elseif(CASE STREQUAL "soc_json_negative_rate")
  execute_process(COMMAND "${CLI}" socs --export kirin990
                  RESULT_VARIABLE export_rc OUTPUT_VARIABLE export)
  if(NOT export_rc STREQUAL "0")
    message(FATAL_ERROR "h2p_cli socs --export kirin990 failed: ${export_rc}")
  endif()
  string(JSON export SET "${export}" processors 0 peak_gflops -5)
  set(soc "${WORK_DIR}/${CASE}.json")
  file(WRITE "${soc}" "${export}")
  set(args plan --models resnet50,squeezenet --soc-json "${soc}")
  set(expect "processor 0: \"peak_gflops\" must be a finite positive number, got -5")
elseif(CASE STREQUAL "socs_export_unknown")
  set(args socs --export foo)
  set(expect "socs: --export: unknown SoC \"foo\"")
elseif(CASE STREQUAL "soc_unknown_name")
  set(args plan --models resnet50,squeezenet --soc foo)
  set(expect "plan: --soc: unknown SoC \"foo\"")
elseif(CASE STREQUAL "soc_json_missing_file")
  set(args plan --models resnet50,squeezenet --soc-json "${WORK_DIR}/missing.json")
  set(expect "plan: --soc-json: cannot open \"${WORK_DIR}/missing.json\"")
elseif(CASE MATCHES "^simulate_")
  # A valid two-model, four-stage plan with one field made invalid.
  set(num_stages 4)
  set(model_index 2.5)
  if(CASE STREQUAL "simulate_fractional_model_index")
    set(expect "plan_from_json: model 1: \"model_index\" must be an integer "
               "in [0, 4294967296), got 2.5")
  else()
    set(num_stages -1)
    set(model_index 1)
    set(expect "plan_from_json: \"num_stages\" must be an integer "
               "in [0, 4294967296), got -1")
  endif()
  string(CONCAT expect ${expect})
  set(plan "${WORK_DIR}/${CASE}.json")
  file(WRITE "${plan}"
       "{\"num_stages\": ${num_stages}, \"models\": ["
       "{\"model_index\": 0, \"high_contention\": false, "
       "\"slices\": [[0, 10], [10, 20], [20, 30], [30, 40]]}, "
       "{\"model_index\": ${model_index}, \"high_contention\": false, "
       "\"slices\": [[0, 5], [5, 10], [10, 15], [15, 20]]}]}\n")
  set(args simulate --plan "${plan}" --models resnet50,squeezenet)
else()
  message(FATAL_ERROR "cli_rejects: unknown case ${CASE}")
endif()

execute_process(COMMAND "${CLI}" ${args}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "1")
  message(FATAL_ERROR "h2p_cli ${args}: expected exit status 1, got ${rc}\n"
                      "stderr: ${err}")
endif()
if(expect_no_stdout AND NOT out STREQUAL "")
  message(FATAL_ERROR "h2p_cli ${args}: expected no stdout, got:\n${out}")
endif()
string(FIND "${err}" "${expect}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "h2p_cli ${args}: stderr lacks \"${expect}\":\n${err}")
endif()
