# Benchmark targets, defined from the root CMakeLists (not via
# add_subdirectory) so that build/bench/ contains ONLY the bench binaries —
# `for b in build/bench/*; do $b; done` then runs the whole harness.
set(ICKPT_BENCHES
  bench_fig07_incremental
  bench_fig08_structure
  bench_fig09_modlists
  bench_fig10_positions
  bench_fig11_jvms
  bench_table1_analysis
  bench_table2_engines
  bench_ablation
  bench_pagelevel
  bench_parallel
  bench_profile
)
foreach(name ${ICKPT_BENCHES})
  add_executable(${name} bench/${name}.cpp)
  target_link_libraries(${name} PRIVATE
    ickpt_verify ickpt_analysis ickpt_synth ickpt_spec ickpt_pagetrack
    ickpt_core ickpt_io)
  target_include_directories(${name} PRIVATE ${CMAKE_SOURCE_DIR})
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endforeach()

# The profiler harness certifies its own attribution (stage sums within 10%
# of busy time, JSON re-parsed independently), so its reduced grid runs as a
# ctest smoke test under the `profile` label alongside the profiler suite.
add_test(NAME bench_profile_smoke COMMAND bench_profile --smoke)
set_tests_properties(bench_profile_smoke PROPERTIES LABELS "profile")

# The parallel-capture regression gate: with >= 4 usable CPUs the reduced
# grid asserts that threads=4 capture, and the auto pick a default manager
# makes, are no slower than serial (medians of interleaved rounds); below
# that it reports a skip and passes, so single-core CI stays green. The gate
# assumes its four workers get four cores, so it never shares the machine
# with other tests (RUN_SERIAL) under a parallel ctest run.
add_test(NAME bench_parallel_smoke COMMAND bench_parallel --smoke)
set_tests_properties(bench_parallel_smoke PROPERTIES LABELS "parallel"
  RUN_SERIAL TRUE)

add_executable(bench_micro bench/bench_micro.cpp)
target_link_libraries(bench_micro PRIVATE
  ickpt_analysis ickpt_synth ickpt_spec ickpt_core ickpt_io
  benchmark::benchmark)
target_include_directories(bench_micro PRIVATE ${CMAKE_SOURCE_DIR})
set_target_properties(bench_micro PROPERTIES
  RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
