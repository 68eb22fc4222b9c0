# Runs a program once and compares its output byte for byte with a pinned
# file (the cli_output.* and cli_error.* ctest cases in
# tests/CMakeLists.txt).
#
#   cmake -DCLI=<program> "-DARGS=<arg>|<arg>|..." -DEXPECTED=<file> \
#         [-DEXPECTED_RC=<code>] -P cli_output.cmake
#
# Without EXPECTED_RC the program must exit 0 and EXPECTED pins its stdout.
# With it the program must exit with that code and EXPECTED pins its
# stderr: the rejection a bad input earns.
string(REPLACE "|" ";" args "${ARGS}")
get_filename_component(program "${CLI}" NAME)
execute_process(COMMAND "${CLI}" ${args}
                OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr
                RESULT_VARIABLE rc)
if(DEFINED EXPECTED_RC)
  set(want_rc ${EXPECTED_RC})
  set(actual "${stderr}")
else()
  set(want_rc 0)
  set(actual "${stdout}")
endif()
if(NOT rc STREQUAL want_rc)
  message(FATAL_ERROR "${program} ${args} exited with ${rc}, not ${want_rc}\n"
                      "${stderr}")
endif()
file(READ "${EXPECTED}" expected)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR "${program} ${args} output differs from ${EXPECTED}\n"
                      "--- expected\n${expected}--- actual\n${actual}")
endif()
