# Fixture CMake file: two module libraries whose link lists name each
# other (common <-> geometry), so the DECLARED module graph has a cycle.
# Reading it must produce one layering-violation config finding — a
# cyclic hierarchy would make "upward edge" meaningless.
target_link_libraries(fc_common PUBLIC fc_geometry Threads::Threads)
target_link_libraries(fc_geometry PUBLIC fc_common)
