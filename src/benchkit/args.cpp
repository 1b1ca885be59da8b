#include "benchkit/args.hpp"

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>

namespace benchkit {

int positive_count(const char* text, const char* usage) {
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || v <= 0 ||
      v > INT_MAX) {
    std::fprintf(stderr, "expected a positive count, got \"%s\"\n%s\n", text,
                 usage);
    std::exit(2);
  }
  return static_cast<int>(v);
}

}  // namespace benchkit
