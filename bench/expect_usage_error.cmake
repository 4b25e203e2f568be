# Passes when `BIN --scale=0.05 --exec-mode=functional FLAG` exits with
# the usage-error status 2 and leaves no file whose path starts with
# OUT. Run as:
#   cmake -DBIN=<bench> -DFLAG=<flag> -DOUT=<path stem> -P expect_usage_error.cmake
file(GLOB stale "${OUT}*")
if(stale)
    file(REMOVE ${stale})
endif()
execute_process(COMMAND ${BIN} --scale=0.05 --exec-mode=functional ${FLAG}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${FLAG} with --exec-mode=functional exited "
                        "${rc}, expected the usage error 2: ${err}")
endif()
file(GLOB written "${OUT}*")
if(written)
    message(FATAL_ERROR "usage error still wrote ${written}")
endif()
