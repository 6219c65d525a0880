# Runs the command given after `--` and passes only when it exits with
# status 2 and prints a usage message: the contract of a command-line tool
# refusing its arguments.
#
#   cmake -P expect_usage_error.cmake -- <program> [args...]
set(command "")
set(collect OFF)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(collect)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(collect ON)
  endif()
endforeach()
if(NOT command)
  message(FATAL_ERROR "usage: cmake -P expect_usage_error.cmake -- <program> [args...]")
endif()
execute_process(COMMAND ${command} RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status STREQUAL "2")
  message(FATAL_ERROR "expected exit status 2, got '${status}'\nstdout: ${out}\nstderr: ${err}")
endif()
if(NOT err MATCHES "usage:")
  message(FATAL_ERROR "no usage message on stderr: ${err}")
endif()
