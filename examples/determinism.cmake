# ctest driver: runs one example twice and fails unless both runs exit 0 and
# print byte-identical stdout.  Every input of an example is seeded, so any
# difference is a bug (typically a printed figure that depends on thread
# timing).
#
# Expects -DEXAMPLE=<path to the example binary> -DOUT_DIR=<scratch dir>.
file(MAKE_DIRECTORY ${OUT_DIR})
get_filename_component(name ${EXAMPLE} NAME)
foreach(pass a b)
  execute_process(
    COMMAND ${EXAMPLE}
    OUTPUT_FILE ${OUT_DIR}/${name}_${pass}.txt
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${name} pass ${pass} failed (exit ${rc})")
  endif()
endforeach()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${OUT_DIR}/${name}_a.txt ${OUT_DIR}/${name}_b.txt
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "two runs of ${name} printed different stdout: "
                      "${OUT_DIR}/${name}_a.txt vs ${OUT_DIR}/${name}_b.txt")
endif()
