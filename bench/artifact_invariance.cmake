# Artifact invariance check: a table/figure binary must print
# byte-identical stdout in every dispatch mode and at any worker
# count. The reference is its run with SASSI_SIM_EXEC=generic at
# SASSI_SIM_THREADS=1.
#
#   cmake -DEXE=<artifact> -DREF=<file> -DRECORD=ON \
#         -P artifact_invariance.cmake
#       runs the reference configuration and writes stdout to REF;
#   cmake -DEXE=<artifact> -DREF=<file> -DRUN_ENV=<VAR=VALUE;...> \
#         -P artifact_invariance.cmake
#       runs EXE under RUN_ENV (arguments to `cmake -E env`) and
#       fails unless its stdout equals REF.
#
# A run whose stderr mentions SASSI_SIM_EXEC (an unknown mode name)
# fails too, so a mode list that drifts from simt::kExecModes cannot
# pass by quietly running the default mode.

if(NOT EXE OR NOT REF)
    message(FATAL_ERROR "usage: -DEXE=<artifact> -DREF=<file> "
                        "(-DRECORD=ON | -DRUN_ENV=<VAR=VALUE;...>)")
endif()
if(RECORD)
    set(RUN_ENV SASSI_SIM_EXEC=generic SASSI_SIM_THREADS=1)
endif()

execute_process(
    COMMAND ${CMAKE_COMMAND} -E env ${RUN_ENV} ${EXE}
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${EXE} (${RUN_ENV}) exited with ${rc}:\n${err}")
endif()
if(err MATCHES "SASSI_SIM_EXEC")
    message(FATAL_ERROR "${EXE} (${RUN_ENV}) rejected its mode:\n${err}")
endif()

if(RECORD)
    file(WRITE "${REF}" "${out}")
    return()
endif()
file(READ "${REF}" ref)
if(NOT out STREQUAL ref)
    message(FATAL_ERROR "${EXE} (${RUN_ENV}) differs from its generic "
                        "serial run\n--- generic, 1 thread:\n${ref}\n"
                        "--- this run:\n${out}")
endif()
