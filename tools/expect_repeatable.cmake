# Runs PROG with the space-separated ARGS three times and passes only when
# every run exits 0 and prints the same bytes up to the host-schedule label.
# Reports list the values that depend on host thread scheduling (payload
# pool reuse, rendezvous stalls, futile wake-ups) after that label, so
# everything above it must be the same on every run.
#
#   cmake -DPROG=dipdc "-DARGS=module2 --ranks=8 --metrics" \
#         -P expect_repeatable.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
# obs::kHostScheduleLabel (src/obs/metrics.hpp).
set(label "host schedule (varies run to run):")
foreach(run RANGE 1 3)
  execute_process(COMMAND "${PROG}" ${args}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc STREQUAL "0")
    message(FATAL_ERROR "run ${run}: exit code ${rc}\nstderr: ${err}")
  endif()
  string(FIND "${out}" "${label}" at)
  if(NOT at EQUAL -1)
    string(SUBSTRING "${out}" 0 ${at} out)
  endif()
  if(run EQUAL 1)
    set(first "${out}")
  elseif(NOT out STREQUAL first)
    message(FATAL_ERROR "run ${run} differs from run 1\nrun 1:\n${first}\n"
                        "run ${run}:\n${out}")
  endif()
endforeach()
message(STATUS "three runs agree up to the host-schedule label:\n${first}")
