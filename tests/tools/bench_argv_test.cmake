# Runs BENCH with each bad count and expects a usage error: exit status 2
# and no BENCH_*.json left behind.  Invoked by ctest as
#   cmake -DBENCH=<path> -DWORKDIR=<dir> -P bench_argv_test.cmake
foreach(args "0" "-3" "abc" "--reps;200")
  file(REMOVE_RECURSE "${WORKDIR}")
  file(MAKE_DIRECTORY "${WORKDIR}")
  execute_process(COMMAND "${BENCH}" ${args}
                  WORKING_DIRECTORY "${WORKDIR}"
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc STREQUAL "2")
    message(FATAL_ERROR "'${args}': expected exit 2, got '${rc}'")
  endif()
  file(GLOB written "${WORKDIR}/BENCH_*.json")
  if(written)
    message(FATAL_ERROR "'${args}': wrote ${written}")
  endif()
endforeach()
