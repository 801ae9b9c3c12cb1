# Threaded runtime gate: runs examples/threaded_demo (real threads, one
# worker per site, parallel workers with trace and schedule recording on),
# then audits what it wrote with the offline checkers. The recorded trace
# must pass `nbcp-trace check --strict`, and the recorded interleaving must
# replay cleanly through `nbcp-explore replay`, for both protocols.
#
# Usage (ctest runs it in its own working directory):
#   cmake -DDEMO=<threaded_demo> -DTRACE=<nbcp-trace> -DEXPLORE=<nbcp-explore>
#         -P runtime_gate.cmake
foreach(var DEMO TRACE EXPLORE)
  if(NOT ${var})
    message(FATAL_ERROR "runtime gate: -D${var}=<path> is required")
  endif()
endforeach()

function(gate_step)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    string(REPLACE ";" " " command "${ARGN}")
    message(FATAL_ERROR "runtime gate: `${command}` exited with ${rc}")
  endif()
endfunction()

gate_step(${DEMO})
foreach(protocol 2PC-central 3PC-decentralized)
  gate_step(${TRACE} check --strict threaded_demo_${protocol}.trace.jsonl)
  gate_step(${EXPLORE} replay threaded_demo_${protocol}.schedule.jsonl)
endforeach()
