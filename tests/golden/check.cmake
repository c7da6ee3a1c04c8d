# Golden-output gate, run by ctest as
#   cmake -DBIN=<exe> -DARGS="<args>" -DEXPECTED=<file> -DACTUAL=<file>
#         -P tests/golden/check.cmake
# from the source root. Runs BIN with ARGS, requires exit status 0, and
# compares its stdout with EXPECTED byte for byte. On a mismatch the
# actual stdout is written to ACTUAL for diffing; when a change to the
# modelled output is intended, copy ACTUAL over EXPECTED in the same
# commit.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BIN}" ${args}
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BIN} ${ARGS}: exit status ${status}")
endif()
file(READ "${EXPECTED}" expected)
if(NOT actual STREQUAL expected)
  file(WRITE "${ACTUAL}" "${actual}")
  message(FATAL_ERROR "${BIN} ${ARGS}: stdout differs from ${EXPECTED}; "
                      "actual output written to ${ACTUAL}")
endif()
