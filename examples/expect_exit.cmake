# Runs PROGRAM with the space-separated ARGS and fails unless it exits with
# status EXPECT_EXIT and its stderr matches EXPECT_STDERR. Used by the
# simulate flag-validation tests: a bad value must be a usage error (exit
# 2), never an abort or a silent default.
#
#   cmake -DPROGRAM=... -DARGS="--gpus abc" -DEXPECT_EXIT=2
#         -DEXPECT_STDERR="bad value" -P expect_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROGRAM}" ${args}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR "'${ARGS}' exited with '${rc}', expected ${EXPECT_EXIT}\n${out}${err}")
endif()
if(NOT err MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR "'${ARGS}' stderr does not match '${EXPECT_STDERR}':\n${err}")
endif()
