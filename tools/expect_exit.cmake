# Runs PROG with the space-separated ARGS and passes only when it exits
# with code EXPECT, so a rejected command line is pinned to its exit code
# (WILL_FAIL would accept any failure, a crash included).
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
message(STATUS "exit code ${rc} as expected: ${err}")
