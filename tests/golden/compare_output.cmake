# Run a program and byte-compare its stdout with a recorded golden
# file. Invoked by ctest as
#   cmake -DEXE=<program> "-DARGS=<arguments>" -DGOLDEN=<file>
#         -DOUT=<file> -P compare_output.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${EXE} ${args}
    OUTPUT_FILE ${OUT}
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${EXE} exited with ${rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
    RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
    message(FATAL_ERROR
        "output of ${EXE} ${ARGS} differs from the golden file; "
        "compare with: diff ${GOLDEN} ${OUT}")
endif()
