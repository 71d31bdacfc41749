# Runs PROG with the space-separated ARGS on the threads backend and on the
# tcp backend, and passes only when both exit 0 and print the same results:
# every simulated value must survive real serialization bit for bit.  The
# tcp run adds --transport-stats, so its output must also show backend
# frames (the run really crossed the seam); that report follows the results
# and is not compared.
#
#   cmake -DPROG=dipdc "-DARGS=module5 --ranks=4" -P expect_backends_agree.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROG}" ${args} --backend=threads
  RESULT_VARIABLE rc OUTPUT_VARIABLE threads_out ERROR_VARIABLE err)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "threads: exit code ${rc}\nstderr: ${err}")
endif()
execute_process(COMMAND "${PROG}" ${args} --backend=tcp --transport-stats
  RESULT_VARIABLE rc OUTPUT_VARIABLE tcp_out ERROR_VARIABLE err)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "tcp: exit code ${rc}\nstderr: ${err}")
endif()
string(FIND "${tcp_out}" "${threads_out}" at)
if(NOT at EQUAL 0)
  message(FATAL_ERROR "results differ\nthreads:\n${threads_out}\n"
                      "tcp:\n${tcp_out}")
endif()
string(FIND "${tcp_out}" "backend frames: " at)
if(at EQUAL -1)
  message(FATAL_ERROR "tcp run sent no backend frames\n${tcp_out}")
endif()
message(STATUS "same results on threads and tcp:\n${threads_out}")
