# Runs bansim_cli once and compares its stdout byte for byte with a pinned
# file (the cli_output.* ctest cases in tests/CMakeLists.txt).
#
#   cmake -DCLI=<bansim_cli> "-DARGS=<arg>|<arg>|..." -DEXPECTED=<file> \
#         -P cli_output.cmake
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND "${CLI}" ${args}
                OUTPUT_VARIABLE actual RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bansim_cli ${args} exited with ${rc}")
endif()
file(READ "${EXPECTED}" expected)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR "bansim_cli ${args} output differs from ${EXPECTED}\n"
                      "--- expected\n${expected}--- actual\n${actual}")
endif()
