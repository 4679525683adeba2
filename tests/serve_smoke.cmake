# End-to-end smoke of the tuning server through the shipped binary.
#
#   client --count 3  ->  serve (cold, persists schedule cache)
#                     ->  serve (warm, fresh process, same cache dir)
#                     ->  client --cold/--warm   (bit-identical responses)
#                     ->  serve --out-file /dev/full  (must exit non-zero)
#
# Driven as `cmake -DPERFDOJO=<bin> -DWORK=<dir> -P serve_smoke.cmake` so it
# runs identically under ctest and in CI.
if(NOT PERFDOJO OR NOT WORK)
  message(FATAL_ERROR "usage: cmake -DPERFDOJO=<perfdojo> -DWORK=<dir> -P serve_smoke.cmake")
endif()

file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK})

function(run_checked)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "command failed (${rc}): ${ARGN}")
  endif()
endfunction()

run_checked(${PERFDOJO} client --kernel mul --machine xeon --method search
            --budget 60 --count 3 OUTPUT_FILE ${WORK}/requests.jsonl)

run_checked(${PERFDOJO} serve --cache-dir ${WORK}/cache --workers 4
            --in ${WORK}/requests.jsonl --out-file ${WORK}/cold.jsonl
            ERROR_FILE ${WORK}/cold_stats.txt)

# Fresh process, same cache dir: everything must come back warm.
run_checked(${PERFDOJO} serve --cache-dir ${WORK}/cache --workers 4
            --in ${WORK}/requests.jsonl --out-file ${WORK}/warm.jsonl
            ERROR_FILE ${WORK}/warm_stats.txt)

run_checked(${PERFDOJO} client --cold ${WORK}/cold.jsonl --warm ${WORK}/warm.jsonl)

# The warm server's stats line must show zero tuning runs and zero
# machine-model evaluations — the whole batch was served from disk.
file(READ ${WORK}/warm_stats.txt warm_stats)
foreach(needle "\"tuning_runs\":0" "\"machine_evals\":0" "\"warm_hits\":3")
  string(FIND "${warm_stats}" "${needle}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "warm serve stats missing ${needle}: ${warm_stats}")
  endif()
endforeach()

# The cold run must have tuned the deduped request exactly once.
file(READ ${WORK}/cold_stats.txt cold_stats)
string(FIND "${cold_stats}" "\"tuning_runs\":1" at)
if(at EQUAL -1)
  message(FATAL_ERROR "cold serve did not dedupe to one tuning run: ${cold_stats}")
endif()

# A response stream that cannot be written must fail the run, not report
# success after delivering nothing.
execute_process(COMMAND ${PERFDOJO} serve --cache-dir ${WORK}/cache
                --in ${WORK}/requests.jsonl --out-file /dev/full
                RESULT_VARIABLE full_rc ERROR_VARIABLE full_err)
if(full_rc EQUAL 0)
  message(FATAL_ERROR "serve to /dev/full exited 0: ${full_err}")
endif()
string(FIND "${full_err}" "serve: writing responses failed" at)
if(at EQUAL -1)
  message(FATAL_ERROR "serve to /dev/full did not report the failed write: ${full_err}")
endif()

message(STATUS "serve smoke passed: cold tuned once, warm served 3/3 with zero evaluations, failed write reported")
