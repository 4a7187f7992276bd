# Fails when any file under src/, include/ or bench/ other than
# src/support/env.cpp mentions getenv: every DJSTAR_* variable is read
# through support/env, so its contract (blank throws, malformed throws)
# is written once.
#
#   cmake -DROOT=<source dir> -P tests/lint/one_env_reader.cmake
if(NOT ROOT)
  message(FATAL_ERROR "one_env_reader: pass -DROOT=<source dir>")
endif()
file(GLOB_RECURSE _files LIST_DIRECTORIES false
     "${ROOT}/src/*" "${ROOT}/include/*" "${ROOT}/bench/*")
set(_offenders "")
foreach(_f IN LISTS _files)
  if(_f STREQUAL "${ROOT}/src/support/env.cpp")
    continue()
  endif()
  file(STRINGS "${_f}" _hits REGEX "getenv")
  if(_hits)
    file(RELATIVE_PATH _rel "${ROOT}" "${_f}")
    list(APPEND _offenders "${_rel}")
  endif()
endforeach()
if(_offenders)
  list(JOIN _offenders "\n  " _list)
  message(FATAL_ERROR "getenv outside src/support/env.cpp (read DJSTAR_* "
                      "variables through support::env::get):\n  ${_list}")
endif()
