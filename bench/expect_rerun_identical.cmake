# Passes when two runs of `BIN ARGS --cache=rw` into the fresh cache
# directory DIR both succeed and write byte-identical --json artifacts:
# whatever the second run serves from the cache, its results must be
# the first run's. Run as:
#   cmake -DBIN=<bench> "-DARGS=<flags>" -DDIR=<cache dir> -DOUT=<path stem>
#         -P expect_rerun_identical.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
file(REMOVE_RECURSE "${DIR}")
foreach(run 1 2)
    execute_process(COMMAND ${BIN} ${args} --cache=rw --cache-dir=${DIR}
                            --json=${OUT}.${run}.json
                    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "run ${run} exited ${rc}: ${err}")
    endif()
endforeach()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        ${OUT}.1.json ${OUT}.2.json
                RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
    message(FATAL_ERROR "the rerun's artifact ${OUT}.2.json differs "
                        "from ${OUT}.1.json")
endif()
