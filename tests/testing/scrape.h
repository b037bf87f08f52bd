// Copyright 2026 The Tyche Reproduction Authors.
// Reads one sample out of a Prometheus text scrape (Monitor::ExportMetrics),
// so tests can compare the aggregate read-out against each signal's owner.

#ifndef TESTS_TESTING_SCRAPE_H_
#define TESTS_TESTING_SCRAPE_H_

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>

namespace tyche {

// The value of the sample line `series value`, where `series` is the full
// rendered name including labels (e.g. `tyche_api_calls_total{op="seal"}`);
// nullopt when the scrape has no such line.
inline std::optional<uint64_t> ScrapeValue(const std::string& text,
                                           const std::string& series) {
  const std::string prefix = series + " ";
  for (size_t at = text.find(prefix); at != std::string::npos;
       at = text.find(prefix, at + 1)) {
    if (at == 0 || text[at - 1] == '\n') {
      return std::strtoull(text.c_str() + at + prefix.size(), nullptr, 10);
    }
  }
  return std::nullopt;
}

}  // namespace tyche

#endif  // TESTS_TESTING_SCRAPE_H_
