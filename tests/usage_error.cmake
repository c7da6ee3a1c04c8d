# Usage-error gate, run by ctest as
#   cmake -DBIN=<exe> -DARGS="<args>" -DEXPECT_STDERR=<regex>
#         -P tests/usage_error.cmake
# from the source root. Runs BIN with ARGS and requires exit status 2 (the
# CLIs' usage/load-error status) and a stderr that matches EXPECT_STDERR,
# so a malformed flag is reported by name instead of crashing or being
# silently coerced.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BIN}" ${args}
                OUTPUT_QUIET
                ERROR_VARIABLE stderr
                RESULT_VARIABLE status)
if(NOT status EQUAL 2)
  message(FATAL_ERROR "${BIN} ${ARGS}: exit status ${status}, expected 2; "
                      "stderr: ${stderr}")
endif()
if(NOT stderr MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR "${BIN} ${ARGS}: stderr does not match "
                      "'${EXPECT_STDERR}': ${stderr}")
endif()
