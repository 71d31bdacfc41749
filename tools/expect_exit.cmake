# Runs PROG with the space-separated ARGS and passes only when it exits
# with code EXPECT, so a rejected command line is pinned to its exit code
# (WILL_FAIL would accept any failure, a crash included).  When
# EXPECT_STDERR is set, stderr must also contain that literal text.
#
#   cmake -DPROG=dipdc "-DARGS=module3 --stream --repartition" -DEXPECT=2 \
#         -P expect_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROG}" ${args}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "${EXPECT}")
  message(FATAL_ERROR "exit code ${rc}, expected ${EXPECT}\n"
                      "stdout: ${out}\nstderr: ${err}")
endif()
if(DEFINED EXPECT_STDERR)
  string(FIND "${err}" "${EXPECT_STDERR}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "stderr lacks \"${EXPECT_STDERR}\"\nstderr: ${err}")
  endif()
endif()
message(STATUS "exit code ${rc} as expected: ${err}")
