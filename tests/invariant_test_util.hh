#ifndef PISO_TESTS_INVARIANT_TEST_UTIL_HH
#define PISO_TESTS_INVARIANT_TEST_UTIL_HH

/**
 * @file
 * A death test for PISO_INVARIANT that holds in both builds: without
 * PISO_HARDENED a failed invariant panics (aborts), with it the
 * invariant throws InvariantError. EXPECT_INVARIANT_FAILS expects
 * whichever the build does, with the regular expression @p pattern
 * found in the message.
 */

#include <gtest/gtest.h>

#include <regex>
#include <string>

#include "src/util/error.hh"

#ifdef PISO_HARDENED
#define EXPECT_INVARIANT_FAILS(statement, pattern)                          \
    do {                                                                    \
        try {                                                               \
            statement;                                                      \
            ADD_FAILURE() << "no InvariantError from: " #statement;         \
        } catch (const ::piso::InvariantError &e) {                         \
            EXPECT_TRUE(std::regex_search(std::string(e.what()),            \
                                          std::regex(pattern)))             \
                << "InvariantError \"" << e.what()                          \
                << "\" does not match \"" << (pattern) << "\"";             \
        }                                                                   \
    } while (0)
#else
#define EXPECT_INVARIANT_FAILS(statement, pattern)                          \
    EXPECT_DEATH(statement, pattern)
#endif

#endif // PISO_TESTS_INVARIANT_TEST_UTIL_HH
