# Fails when a SIMD tier object of the kernels archive defines a weak or
# COMDAT symbol (nm types W, V and u), other than the personality-routine
# reference every TU with exception cleanups carries.  Such a symbol (an
# external-linkage inline function, a template instantiation, a static
# local of one) is a copy compiled with the tier's -m flags that the
# linker may keep for every caller, so a host without that ISA would run
# it and fault.  The tier TUs are the ones named *_avx2.cpp and
# *_avx512.cpp.
#
#   cmake -DNM=nm -DARCHIVE=libkernels.a -P tier_linkage.cmake
execute_process(COMMAND "${NM}" "${ARCHIVE}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${NM} ${ARCHIVE} failed (${rc}): ${err}")
endif()
string(REPLACE "\n" ";" lines "${out}")
set(member "")
set(tiers "")
set(bad "")
foreach(line IN LISTS lines)
  if(line MATCHES "^(.+):$")
    set(member "${CMAKE_MATCH_1}")
    if(member MATCHES "_avx(2|512)\\.cpp\\.o$")
      list(APPEND tiers "${member}")
    endif()
  elseif(member MATCHES "_avx(2|512)\\.cpp\\.o$" AND
         line MATCHES "^[0-9a-fA-F]* +([WVu]) (.+)$" AND
         NOT CMAKE_MATCH_2 STREQUAL "DW.ref.__gxx_personality_v0")
    string(APPEND bad "\n  ${member}: ${CMAKE_MATCH_1} ${CMAKE_MATCH_2}")
  endif()
endforeach()
if(tiers STREQUAL "")
  message(FATAL_ERROR "no *_avx2.cpp.o or *_avx512.cpp.o in ${ARCHIVE}")
endif()
if(NOT bad STREQUAL "")
  message(FATAL_ERROR "weak or COMDAT symbols in SIMD tier objects:${bad}")
endif()
message(STATUS "no weak or COMDAT symbols in ${tiers}")
