# Runs one command that must reject its command line: exit code 2 and a
# diagnostic on stderr matching EXPECT. PASS_REGULAR_EXPRESSION alone would
# accept a matching line from a run that went on to exit 0.
#
#   cmake -DCMD=<binary> -DARGS="<args>" -DEXPECT=<regex> -P expect_usage_error.cmake
if(NOT CMD OR NOT EXPECT)
  message(FATAL_ERROR "usage: cmake -DCMD=<binary> -DARGS=<args> -DEXPECT=<regex> -P expect_usage_error.cmake")
endif()

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${CMD} ${args}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "expected exit code 2, got ${rc}\nstdout:\n${out}\nstderr:\n${err}")
endif()
if(NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR "stderr does not match '${EXPECT}':\n${err}")
endif()
