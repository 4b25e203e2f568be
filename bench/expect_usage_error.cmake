# Passes when BIN exits with the usage-error status 2 and leaves no file
# whose path starts with OUT. BIN runs with ARGS (one string of flags),
# by default `--scale=0.05 --exec-mode=functional FLAG`; when EXPECT is
# given, the error text must contain it. Run as:
#   cmake -DBIN=<bench> -DFLAG=<flag> -DOUT=<path stem> -P expect_usage_error.cmake
#   cmake -DBIN=<bench> "-DARGS=<flags>" -DEXPECT=<text> -DOUT=<path stem>
#         -P expect_usage_error.cmake
file(GLOB stale "${OUT}*")
if(stale)
    file(REMOVE ${stale})
endif()
if(DEFINED ARGS)
    separate_arguments(args UNIX_COMMAND "${ARGS}")
else()
    set(args --scale=0.05 --exec-mode=functional ${FLAG})
endif()
execute_process(COMMAND ${BIN} ${args}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
    string(JOIN " " shown ${args})
    message(FATAL_ERROR "'${shown}' exited ${rc}, expected the usage "
                        "error 2: ${err}")
endif()
if(DEFINED EXPECT)
    string(FIND "${err}" "${EXPECT}" at)
    if(at EQUAL -1)
        message(FATAL_ERROR "the usage error does not name ${EXPECT}: "
                            "${err}")
    endif()
endif()
file(GLOB written "${OUT}*")
if(written)
    message(FATAL_ERROR "usage error still wrote ${written}")
endif()
