# ctest driver: runs fault_tolerance with one worker thread and with four and
# fails unless stdout and the --report-out reports are byte-identical.  The
# reports carry every per-category ledger row, including the reliable
# transport's ".retx"/".ack" categories, which the workers intern in racing
# order — so this pins that no rendering depends on category id order.
#
# Expects -DFAULT_TOLERANCE=<path to fault_tolerance binary>
# -DOUT_DIR=<scratch dir>.
foreach(threads 1 4)
  # Each pass writes under its own directory with the same relative report
  # path, so the "wrote ... to <path>" line on stdout compares equal too.
  set(dir ${OUT_DIR}/threads_${threads})
  file(MAKE_DIRECTORY ${dir})
  execute_process(
    COMMAND ${FAULT_TOLERANCE} --threads ${threads} --report-out report.json
    WORKING_DIRECTORY ${dir}
    OUTPUT_FILE ${dir}/stdout.txt
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "fault_tolerance --threads ${threads} failed (exit ${rc})")
  endif()
endforeach()

foreach(file stdout.txt report.json)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${OUT_DIR}/threads_1/${file} ${OUT_DIR}/threads_4/${file}
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "--threads 1 and --threads 4 differ in ${file}")
  endif()
endforeach()
