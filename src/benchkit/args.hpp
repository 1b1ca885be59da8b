// args.hpp — command-line count parsing shared by the bench binaries.
//
// A bench handed "0", "-3", "abc" or a flag where it expects a count must
// stop with a usage error, not run with a zero count (several divide by
// it) or a negative one.
#pragma once

namespace benchkit {

/// Parses `text` as a positive decimal count in [1, INT_MAX] with nothing
/// trailing.  On anything else prints the offending text and `usage` to
/// stderr and exits the process with status 2.
int positive_count(const char* text, const char* usage);

}  // namespace benchkit
