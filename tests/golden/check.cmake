# Golden-output gate, run by ctest as
#   cmake -DBIN=<exe> -DARGS="<args>" [-DEXPECTED=<file> -DACTUAL=<file>]
#         [-DOUTPUT=<file> -DEXPECTED_OUTPUT=<file>]
#         -P tests/golden/check.cmake
# from the source root. Runs BIN with ARGS and requires exit status 0.
# With EXPECTED, its stdout must equal EXPECTED byte for byte; on a
# mismatch the actual stdout is written to ACTUAL for diffing. With
# OUTPUT, the file BIN writes there (ARGS must tell it to) must equal
# EXPECTED_OUTPUT byte for byte; on a mismatch it is left in place for
# diffing. When a change to the modelled output is intended, copy the
# actual bytes over the golden in the same commit.
separate_arguments(args UNIX_COMMAND "${ARGS}")
if(DEFINED OUTPUT)
  file(REMOVE "${OUTPUT}")  # a stale file from an earlier run must not pass
endif()
execute_process(COMMAND "${BIN}" ${args}
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BIN} ${ARGS}: exit status ${status}")
endif()
if(DEFINED EXPECTED)
  file(READ "${EXPECTED}" expected)
  if(NOT actual STREQUAL expected)
    file(WRITE "${ACTUAL}" "${actual}")
    message(FATAL_ERROR "${BIN} ${ARGS}: stdout differs from ${EXPECTED}; "
                        "actual output written to ${ACTUAL}")
  endif()
endif()
if(DEFINED OUTPUT)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                          "${OUTPUT}" "${EXPECTED_OUTPUT}"
                  RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    message(FATAL_ERROR "${BIN} ${ARGS}: ${OUTPUT} differs from "
                        "${EXPECTED_OUTPUT} (or was not written)")
  endif()
endif()
