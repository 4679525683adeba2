# End-to-end smoke of a schedule cache shared by several servers.
#
#   client  ->  a.jsonl, b.jsonl        (disjoint requests)
#   serve a.jsonl  |  serve b.jsonl     (two processes at once, one cache dir)
#   serve a.jsonl + b.jsonl             (a third process, same cache dir)
#   client --cold/--warm                (every response warm, bit-identical)
#
# Driven as `cmake -DPERFDOJO=<bin> -DWORK=<dir> -P serve_shared_cache_smoke.cmake`
# so it runs identically under ctest and in CI.
if(NOT PERFDOJO OR NOT WORK)
  message(FATAL_ERROR "usage: cmake -DPERFDOJO=<perfdojo> -DWORK=<dir> -P serve_shared_cache_smoke.cmake")
endif()

file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK})

function(run_checked)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "command failed (${rc}): ${ARGN}")
  endif()
endfunction()

# One request per (kernel, machine), each with its own id, so the two files
# share no key and every key lands in the cache exactly once.
function(write_requests file)
  file(WRITE ${file} "")
  foreach(kernel ${ARGN})
    foreach(machine xeon snitch)
      execute_process(COMMAND ${PERFDOJO} client --kernel ${kernel}
                      --machine ${machine} --method search --budget 60
                      OUTPUT_VARIABLE line RESULT_VARIABLE rc)
      if(NOT rc EQUAL 0)
        message(FATAL_ERROR "client failed for ${kernel}/${machine}")
      endif()
      string(REPLACE "\"id\":\"req-0\"" "\"id\":\"${kernel}-${machine}\""
             line "${line}")
      file(APPEND ${file} "${line}")
    endforeach()
  endforeach()
endfunction()

write_requests(${WORK}/a.jsonl add mul relu softmax dot axpy sum vrelu)
write_requests(${WORK}/b.jsonl vmul gemm conv1d norm2 softmax8 rmsnorm8
               rmsnorm reducemean)

# execute_process runs the COMMANDs of one call concurrently (as a
# pipeline; serve reads --in and writes --out-file, so the pipe carries
# nothing): two servers filling one cache directory at the same time.
execute_process(
  COMMAND ${PERFDOJO} serve --cache-dir ${WORK}/cache --workers 4
          --in ${WORK}/a.jsonl --out-file ${WORK}/cold_a.jsonl
  COMMAND ${PERFDOJO} serve --cache-dir ${WORK}/cache --workers 4
          --in ${WORK}/b.jsonl --out-file ${WORK}/cold_b.jsonl
  RESULTS_VARIABLE rcs)
if(NOT rcs STREQUAL "0;0")
  message(FATAL_ERROR "concurrent serves failed: ${rcs}")
endif()

file(READ ${WORK}/a.jsonl req_a)
file(READ ${WORK}/b.jsonl req_b)
file(WRITE ${WORK}/all.jsonl "${req_a}${req_b}")
file(READ ${WORK}/cold_a.jsonl cold_a)
file(READ ${WORK}/cold_b.jsonl cold_b)
file(WRITE ${WORK}/cold.jsonl "${cold_a}${cold_b}")

# A third server over the shared directory must find every schedule either
# server tuned: all warm, zero tuning runs.
run_checked(${PERFDOJO} serve --cache-dir ${WORK}/cache --workers 4
            --in ${WORK}/all.jsonl --out-file ${WORK}/warm.jsonl
            ERROR_FILE ${WORK}/warm_stats.txt)
run_checked(${PERFDOJO} client --cold ${WORK}/cold.jsonl --warm ${WORK}/warm.jsonl)

file(READ ${WORK}/warm_stats.txt warm_stats)
foreach(needle "\"tuning_runs\":0" "\"machine_evals\":0" "\"warm_hits\":32"
               "\"store_errors\":0")
  string(FIND "${warm_stats}" "${needle}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "shared-cache serve stats missing ${needle}: ${warm_stats}")
  endif()
endforeach()

message(STATUS "shared-cache smoke passed: two concurrent servers, 32/32 warm on a third")
