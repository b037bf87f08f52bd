// Copyright 2026 The Tyche Reproduction Authors.
// Chrome trace_event exporter: schema round-trip through the bundled
// parser, span nesting of journal records, and parser rejection cases.

#include "src/support/trace_export.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace tyche {
namespace {

std::string OpName(uint16_t op) { return "op" + std::to_string(op); }
std::string EventName(uint8_t event) { return "ev" + std::to_string(event); }

TraceEntry MakeEntry(uint64_t seq, uint16_t op, uint32_t core, uint64_t span,
                     uint64_t duration_ns, uint64_t start_ns = 0) {
  TraceEntry entry;
  entry.seq = seq;
  entry.op = op;
  entry.core = core;
  entry.domain = 1;
  entry.span = span;
  entry.duration_ns = duration_ns;
  entry.start_ns = start_ns;
  return entry;
}

JournalRecord MakeRecord(uint64_t seq, uint64_t span, uint8_t event, uint64_t tick) {
  JournalRecord record;
  record.seq = seq;
  record.span = span;
  record.event = event;
  record.tick = tick;
  return record;
}

TEST(TraceExportTest, RoundTripsSlicesAndInstants) {
  const std::vector<TraceEntry> trace = {
      MakeEntry(0, 2, 0, 10, 1500),
      MakeEntry(1, 6, 1, 11, 3000),
  };
  const std::vector<JournalRecord> records = {
      MakeRecord(0, 10, 0, 100),  // nested inside span 10's slice
      MakeRecord(1, 11, 3, 200),  // nested inside span 11's slice
      MakeRecord(2, 99, 4, 300),  // no slice -> journal tick timeline (pid 2)
  };
  const std::string json = ExportChromeTrace(trace, records, OpName, EventName);

  const auto parsed = ParseChromeTrace(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  size_t slices = 0, instants = 0, metadata = 0;
  for (const ParsedTraceEvent& event : *parsed) {
    if (event.phase == "X") {
      ++slices;
      EXPECT_EQ(event.pid, 1);
      EXPECT_GT(event.dur, 0.0);
    } else if (event.phase == "i") {
      ++instants;
    } else if (event.phase == "M") {
      ++metadata;
    }
  }
  EXPECT_EQ(slices, trace.size());
  EXPECT_EQ(instants, records.size());
  EXPECT_EQ(metadata, 2u);  // the two process_name entries

  // Span-keyed nesting: each matched record's instant sits inside its
  // owning slice's [ts, ts+dur] interval on the same pid/tid; the orphan
  // record lands on the journal-tick process.
  const ParsedTraceEvent* slice10 = nullptr;
  for (const ParsedTraceEvent& event : *parsed) {
    if (event.phase == "X" && event.span == 10) {
      slice10 = &event;
    }
  }
  ASSERT_NE(slice10, nullptr);
  for (const ParsedTraceEvent& event : *parsed) {
    if (event.phase != "i") {
      continue;
    }
    if (event.span == 10) {
      EXPECT_EQ(event.pid, 1);
      EXPECT_EQ(event.tid, slice10->tid);
      EXPECT_GE(event.ts, slice10->ts);
      EXPECT_LE(event.ts, slice10->ts + slice10->dur);
      EXPECT_EQ(event.name, "ev0");
    } else if (event.span == 99) {
      EXPECT_EQ(event.pid, 2);
      EXPECT_DOUBLE_EQ(event.ts, 0.3);  // tick 300 -> 0.3 us
    }
  }
}

TEST(TraceExportTest, RealTimestampsPlaceSlicesRelativeToBase) {
  const std::vector<TraceEntry> trace = {
      MakeEntry(0, 1, 0, 5, 1000, /*start_ns=*/1'000'000),
      MakeEntry(1, 1, 0, 6, 1000, /*start_ns=*/1'005'000),
  };
  const auto parsed = ParseChromeTrace(ExportChromeTrace(trace, {}, OpName, EventName));
  ASSERT_TRUE(parsed.ok());
  std::vector<double> slice_ts;
  for (const ParsedTraceEvent& event : *parsed) {
    if (event.phase == "X") {
      slice_ts.push_back(event.ts);
    }
  }
  ASSERT_EQ(slice_ts.size(), 2u);
  EXPECT_DOUBLE_EQ(slice_ts[0], 0.0);  // earliest start is the timeline base
  EXPECT_DOUBLE_EQ(slice_ts[1], 5.0);  // 5000 ns later -> 5 us
}

TEST(TraceExportTest, EmptyInputsStillProduceValidDocument) {
  const auto parsed = ParseChromeTrace(ExportChromeTrace({}, {}, OpName, EventName));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->size(), 2u);  // metadata only
}

TEST(TraceExportTest, NamesWithQuotesSurviveTheRoundTrip) {
  const std::vector<TraceEntry> trace = {MakeEntry(0, 3, 0, 1, 500)};
  const auto quoted = [](uint16_t) { return std::string("a\"b\\c"); };
  const auto parsed =
      ParseChromeTrace(ExportChromeTrace(trace, {}, quoted, EventName));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  bool found = false;
  for (const ParsedTraceEvent& event : *parsed) {
    if (event.phase == "X") {
      EXPECT_EQ(event.name, "a\"b\\c");
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(TraceExportTest, ControlCharactersInNamesRoundTripUnchanged) {
  // Tab, CR and every other control byte are escaped losslessly, not folded
  // into spaces, so a name comes back from the parser byte for byte.
  const std::string name = std::string("tab\there\rcr") + '\x01' + "soh";
  const std::vector<TraceEntry> trace = {MakeEntry(0, 3, 0, 1, 500)};
  const auto named = [&name](uint16_t) { return name; };
  const auto parsed = ParseChromeTrace(ExportChromeTrace(trace, {}, named, EventName));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  bool found = false;
  for (const ParsedTraceEvent& event : *parsed) {
    if (event.phase == "X") {
      EXPECT_EQ(event.name, name);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(TraceParserTest, DecodesEveryJsonStringEscape) {
  const auto name_of = [](const std::string& escaped) -> std::string {
    const auto parsed = ParseChromeTrace("{\"traceEvents\":[{\"name\":\"" + escaped +
                                         "\",\"ph\":\"i\",\"ts\":0,\"pid\":2,\"tid\":0}]}");
    return parsed.ok() && parsed->size() == 1 ? (*parsed)[0].name : "<rejected>";
  };
  EXPECT_EQ(name_of("\\b\\f\\n\\r\\t\\/"), "\b\f\n\r\t/");
  EXPECT_EQ(name_of("\\u0001\\u001F"), "\x01\x1f");
  EXPECT_EQ(name_of("\\u00e9"), "\xc3\xa9");  // U+00E9, two UTF-8 bytes
  EXPECT_EQ(name_of("\\u20AC"), "\xe2\x82\xac");  // U+20AC, three bytes
  EXPECT_EQ(name_of("\\ud83d\\ude00"), "\xf0\x9f\x98\x80");  // surrogate pair
  EXPECT_EQ(name_of("\\ud83d"), "<rejected>");  // unpaired high half
  EXPECT_EQ(name_of("\\ude00"), "<rejected>");  // unpaired low half
  EXPECT_EQ(name_of("\\u12g4"), "<rejected>");
  EXPECT_EQ(name_of("\\u12"), "<rejected>");
  EXPECT_EQ(name_of("\\x41"), "<rejected>");
}

TEST(TraceParserTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(ParseChromeTrace("").ok());
  EXPECT_FALSE(ParseChromeTrace("[]").ok());  // array form not produced by exporter
  EXPECT_FALSE(ParseChromeTrace("{\"traceEvents\":{}}").ok());
  EXPECT_FALSE(ParseChromeTrace("{\"traceEvents\":[").ok());
  // Schema violations: a slice without dur, an event without pid.
  EXPECT_FALSE(ParseChromeTrace("{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"X\","
                                "\"ts\":0,\"pid\":1,\"tid\":0}]}")
                   .ok());
  EXPECT_FALSE(ParseChromeTrace("{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"i\","
                                "\"ts\":0,\"tid\":0}]}")
                   .ok());
  // Valid minimal instant event parses.
  EXPECT_TRUE(ParseChromeTrace("{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"i\","
                               "\"ts\":1.5,\"pid\":2,\"tid\":0}]}")
                  .ok());
}

}  // namespace
}  // namespace tyche
