# Runs a program once and compares its stdout byte for byte with a pinned
# file (the cli_output.* ctest cases in tests/CMakeLists.txt).
#
#   cmake -DCLI=<program> "-DARGS=<arg>|<arg>|..." -DEXPECTED=<file> \
#         -P cli_output.cmake
string(REPLACE "|" ";" args "${ARGS}")
get_filename_component(program "${CLI}" NAME)
execute_process(COMMAND "${CLI}" ${args}
                OUTPUT_VARIABLE actual RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${program} ${args} exited with ${rc}")
endif()
file(READ "${EXPECTED}" expected)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR "${program} ${args} output differs from ${EXPECTED}\n"
                      "--- expected\n${expected}--- actual\n${actual}")
endif()
