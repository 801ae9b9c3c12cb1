# Trace gate: runs examples/coordinator_crash, which writes the trace of the
# same coordinator crash under 2PC and under 3PC, and pins the offline
# checkers' verdicts on them to the paper's:
#   * `nbcp-trace check --strict` (anomaly scan plus offline global-state
#     replay with every invariant re-checked) passes the 3PC trace and
#     fails the 2PC one, which blocks;
#   * `nbcp-trace blocking` (the stall detector's replay) resolves every
#     blocked span of the 3PC trace through termination (exit 0) and leaves
#     the 2PC trace with unresolved blocked spans (exit 3).
#
# Usage (ctest runs it in its own working directory):
#   cmake -DDEMO=<coordinator_crash> -DTRACE=<nbcp-trace> -P trace_gate.cmake
foreach(var DEMO TRACE)
  if(NOT ${var})
    message(FATAL_ERROR "trace gate: -D${var}=<path> is required")
  endif()
endforeach()

# gate_step(<expected> <command...>): <expected> is an exit code, or
# "nonzero" for any failing exit.
function(gate_step expected)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc)
  string(REPLACE ";" " " command "${ARGN}")
  if(expected STREQUAL "nonzero")
    if(rc EQUAL 0)
      message(FATAL_ERROR "trace gate: `${command}` exited with 0, "
                          "expected a failure")
    endif()
  elseif(NOT rc EQUAL expected)
    message(FATAL_ERROR "trace gate: `${command}` exited with ${rc}, "
                        "expected ${expected}")
  endif()
endfunction()

gate_step(0 ${DEMO})
gate_step(0 ${TRACE} check --strict coordinator_crash_3PC-central.trace.jsonl)
gate_step(nonzero
          ${TRACE} check --strict coordinator_crash_2PC-central.trace.jsonl)
gate_step(0 ${TRACE} blocking coordinator_crash_3PC-central.trace.jsonl)
gate_step(3 ${TRACE} blocking coordinator_crash_2PC-central.trace.jsonl)
