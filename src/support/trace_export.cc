// Copyright 2026 The Tyche Reproduction Authors.

#include "src/support/trace_export.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <map>
#include <sstream>

namespace tyche {

namespace {

std::string Micros(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.3f", value);
  return buffer;
}

void EmitMetadata(std::ostringstream& out, bool* first, int64_t pid, int64_t tid,
                  const char* kind, const std::string& value) {
  if (!*first) {
    out << ",\n";
  }
  *first = false;
  out << "{\"name\":\"" << kind << "\",\"ph\":\"M\",\"ts\":0,\"pid\":" << pid
      << ",\"tid\":" << tid << ",\"args\":{\"name\":\"" << EscapeJsonString(value)
      << "\"}}";
}

struct SliceRef {
  double ts = 0;
  double dur = 0;
  int64_t tid = 0;
};

}  // namespace

std::string ExportChromeTrace(const std::vector<TraceEntry>& trace,
                              const std::vector<JournalRecord>& records,
                              const std::function<std::string(uint16_t)>& op_name,
                              const std::function<std::string(uint8_t)>& event_name,
                              const std::vector<TraceExemplarMark>& exemplars) {
  std::ostringstream out;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;

  EmitMetadata(out, &first, 1, 0, "process_name", "tyche monitor (dispatch)");
  EmitMetadata(out, &first, 2, 0, "process_name", "tyche audit journal (ticks)");

  // Timeline base: real steady-clock placement when every entry carries a
  // start timestamp, synthetic sequence layout otherwise (mixed placement
  // would interleave incomparable clocks).
  uint64_t base_ns = ~0ull;
  bool synthetic = trace.empty();
  for (const TraceEntry& entry : trace) {
    if (entry.start_ns == 0) {
      synthetic = true;
    } else {
      base_ns = std::min(base_ns, entry.start_ns);
    }
  }

  std::map<uint64_t, SliceRef> slice_by_span;
  double cursor = 0;
  for (const TraceEntry& entry : trace) {
    const double dur = std::max(static_cast<double>(entry.duration_ns) / 1000.0, 0.001);
    double ts;
    if (synthetic) {
      ts = cursor;
      cursor += dur + 0.1;
    } else {
      ts = static_cast<double>(entry.start_ns - base_ns) / 1000.0;
    }
    if (entry.span != 0) {
      slice_by_span[entry.span] = SliceRef{ts, dur, static_cast<int64_t>(entry.core)};
    }
    if (!first) {
      out << ",\n";
    }
    first = false;
    out << "{\"name\":\""
        << EscapeJsonString(op_name ? op_name(entry.op) : std::to_string(entry.op))
        << "\",\"ph\":\"X\",\"ts\":" << Micros(ts) << ",\"dur\":" << Micros(dur)
        << ",\"pid\":1,\"tid\":" << entry.core << ",\"args\":{\"span\":" << entry.span
        << ",\"seq\":" << entry.seq << ",\"domain\":" << entry.domain
        << ",\"error\":" << entry.error << ",\"args_digest\":\"0x" << std::hex
        << entry.args_digest << std::dec << "\"}}";
  }

  // Journal records: nested ticks inside the owning dispatch slice, or the
  // simulated-cycle timeline for spans with no dispatch slice in the ring.
  std::map<uint64_t, uint64_t> span_record_count;
  for (const JournalRecord& record : records) {
    span_record_count[record.span]++;
  }
  std::map<uint64_t, uint64_t> span_record_index;
  for (const JournalRecord& record : records) {
    const auto slice = slice_by_span.find(record.span);
    double ts;
    int64_t pid, tid;
    if (slice != slice_by_span.end()) {
      const uint64_t n = span_record_count[record.span];
      const uint64_t k = span_record_index[record.span]++;
      ts = slice->second.ts +
           slice->second.dur * static_cast<double>(k + 1) / static_cast<double>(n + 1);
      pid = 1;
      tid = slice->second.tid;
    } else {
      ts = static_cast<double>(record.tick) / 1000.0;
      pid = 2;
      tid = 0;
    }
    if (!first) {
      out << ",\n";
    }
    first = false;
    out << "{\"name\":\""
        << EscapeJsonString(event_name ? event_name(record.event)
                                       : std::to_string(record.event))
        << "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":" << Micros(ts) << ",\"pid\":" << pid
        << ",\"tid\":" << tid << ",\"args\":{\"span\":" << record.span
        << ",\"seq\":" << record.seq << ",\"domain\":" << record.domain
        << ",\"cap\":" << record.cap << ",\"result\":" << record.result << "}}";
  }

  // Profiler exemplars: the slowest (op, phase) samples as global instant
  // events, so a histogram outlier is clickable next to -- or inside -- the
  // dispatch slice that produced it. Slice placement wins (the span links
  // them even after the ring rotated past the real timestamp); real
  // steady-clock placement is the fallback when the timeline is not
  // synthetic; otherwise the mark has no comparable position and is dropped.
  for (const TraceExemplarMark& mark : exemplars) {
    double ts;
    int64_t tid;
    const auto slice = slice_by_span.find(mark.span);
    if (mark.span != 0 && slice != slice_by_span.end()) {
      ts = slice->second.ts + slice->second.dur / 2.0;
      tid = slice->second.tid;
    } else if (!synthetic && mark.ts_ns >= base_ns) {
      ts = static_cast<double>(mark.ts_ns - base_ns) / 1000.0;
      tid = 0;
    } else {
      continue;
    }
    if (!first) {
      out << ",\n";
    }
    first = false;
    out << "{\"name\":\"" << EscapeJsonString(mark.name)
        << "\",\"ph\":\"i\",\"s\":\"g\",\"ts\":" << Micros(ts) << ",\"pid\":1,\"tid\":"
        << tid << ",\"args\":{\"span\":" << mark.span << ",\"ns\":" << mark.duration_ns
        << "}}";
  }

  out << "\n]}\n";
  return out.str();
}

// ===== Round-trip parser =====

namespace {

// Minimal JSON DOM, just deep enough for the exporter's own output.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  Result<JsonValue> Parse() {
    TYCHE_ASSIGN_OR_RETURN(const JsonValue value, ParseValue());
    SkipSpace();
    if (pos_ != text_.size()) {
      return Fail("trailing characters after document");
    }
    return value;
  }

 private:
  Status Fail(const std::string& what) const {
    return Error(ErrorCode::kInvalidArgument,
                 "json parse error at offset " + std::to_string(pos_) + ": " + what);
  }

  void SkipSpace() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Result<JsonValue> ParseValue() {
    SkipSpace();
    if (pos_ >= text_.size()) {
      return Fail("unexpected end of input");
    }
    const char c = text_[pos_];
    if (c == '{') {
      return ParseObject();
    }
    if (c == '[') {
      return ParseArray();
    }
    if (c == '"') {
      JsonValue value;
      value.kind = JsonValue::Kind::kString;
      TYCHE_ASSIGN_OR_RETURN(value.string, ParseString());
      return value;
    }
    if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      JsonValue value;
      value.kind = JsonValue::Kind::kBool;
      value.boolean = true;
      return value;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      JsonValue value;
      value.kind = JsonValue::Kind::kBool;
      return value;
    }
    if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return JsonValue{};
    }
    return ParseNumber();
  }

  Result<std::string> ParseString() {
    if (!Consume('"')) {
      return Fail("expected string");
    }
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        return out;
      }
      if (c == '\\') {
        if (pos_ >= text_.size()) {
          break;
        }
        const char escaped = text_[pos_++];
        switch (escaped) {
          case '"':
            out += '"';
            break;
          case '\\':
            out += '\\';
            break;
          case '/':
            out += '/';
            break;
          case 'b':
            out += '\b';
            break;
          case 'f':
            out += '\f';
            break;
          case 'n':
            out += '\n';
            break;
          case 'r':
            out += '\r';
            break;
          case 't':
            out += '\t';
            break;
          case 'u': {
            TYCHE_ASSIGN_OR_RETURN(uint32_t code, ParseHex4());
            if (code >= 0xd800 && code < 0xdc00) {  // high surrogate: needs its pair
              if (text_.compare(pos_, 2, "\\u") != 0) {
                return Fail("unpaired surrogate");
              }
              pos_ += 2;
              TYCHE_ASSIGN_OR_RETURN(const uint32_t low, ParseHex4());
              if (low < 0xdc00 || low >= 0xe000) {
                return Fail("unpaired surrogate");
              }
              code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
            } else if (code >= 0xdc00 && code < 0xe000) {
              return Fail("unpaired surrogate");
            }
            AppendUtf8(code, &out);
            break;
          }
          default:
            return Fail(std::string("unsupported escape \\") + escaped);
        }
      } else {
        out += c;
      }
    }
    return Fail("unterminated string");
  }

  // The four hex digits of a \uXXXX escape.
  Result<uint32_t> ParseHex4() {
    const std::string hex = text_.substr(pos_, 4);
    if (hex.size() != 4 || !std::all_of(hex.begin(), hex.end(), [](unsigned char d) {
          return std::isxdigit(d) != 0;
        })) {
      return Fail("bad \\u escape");
    }
    pos_ += 4;
    return static_cast<uint32_t>(std::stoul(hex, nullptr, 16));
  }

  static void AppendUtf8(uint32_t code, std::string* out) {
    if (code < 0x80) {
      *out += static_cast<char>(code);
    } else if (code < 0x800) {
      *out += static_cast<char>(0xc0 | (code >> 6));
      *out += static_cast<char>(0x80 | (code & 0x3f));
    } else if (code < 0x10000) {
      *out += static_cast<char>(0xe0 | (code >> 12));
      *out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
      *out += static_cast<char>(0x80 | (code & 0x3f));
    } else {
      *out += static_cast<char>(0xf0 | (code >> 18));
      *out += static_cast<char>(0x80 | ((code >> 12) & 0x3f));
      *out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
      *out += static_cast<char>(0x80 | (code & 0x3f));
    }
  }

  Result<JsonValue> ParseNumber() {
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '-' ||
            text_[pos_] == '+' || text_[pos_] == '.' || text_[pos_] == 'e' ||
            text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) {
      return Fail("expected a value");
    }
    JsonValue value;
    value.kind = JsonValue::Kind::kNumber;
    try {
      value.number = std::stod(text_.substr(start, pos_ - start));
    } catch (...) {
      return Fail("malformed number");
    }
    return value;
  }

  Result<JsonValue> ParseObject() {
    if (!Consume('{')) {
      return Fail("expected object");
    }
    JsonValue value;
    value.kind = JsonValue::Kind::kObject;
    if (Consume('}')) {
      return value;
    }
    while (true) {
      SkipSpace();
      TYCHE_ASSIGN_OR_RETURN(const std::string key, ParseString());
      if (!Consume(':')) {
        return Fail("expected ':' after object key");
      }
      TYCHE_ASSIGN_OR_RETURN(JsonValue member, ParseValue());
      value.object.emplace(key, std::move(member));
      if (Consume(',')) {
        continue;
      }
      if (Consume('}')) {
        return value;
      }
      return Fail("expected ',' or '}' in object");
    }
  }

  Result<JsonValue> ParseArray() {
    if (!Consume('[')) {
      return Fail("expected array");
    }
    JsonValue value;
    value.kind = JsonValue::Kind::kArray;
    if (Consume(']')) {
      return value;
    }
    while (true) {
      TYCHE_ASSIGN_OR_RETURN(JsonValue element, ParseValue());
      value.array.push_back(std::move(element));
      if (Consume(',')) {
        continue;
      }
      if (Consume(']')) {
        return value;
      }
      return Fail("expected ',' or ']' in array");
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

Result<std::vector<ParsedTraceEvent>> ParseChromeTrace(const std::string& json) {
  JsonParser parser(json);
  TYCHE_ASSIGN_OR_RETURN(const JsonValue root, parser.Parse());
  if (root.kind != JsonValue::Kind::kObject) {
    return Error(ErrorCode::kInvalidArgument, "trace document is not a JSON object");
  }
  const auto events_it = root.object.find("traceEvents");
  if (events_it == root.object.end() ||
      events_it->second.kind != JsonValue::Kind::kArray) {
    return Error(ErrorCode::kInvalidArgument, "missing traceEvents array");
  }
  std::vector<ParsedTraceEvent> events;
  for (const JsonValue& event : events_it->second.array) {
    if (event.kind != JsonValue::Kind::kObject) {
      return Error(ErrorCode::kInvalidArgument, "trace event is not an object");
    }
    ParsedTraceEvent parsed;
    const auto require = [&event](const char* key,
                                  JsonValue::Kind kind) -> Result<const JsonValue*> {
      const auto it = event.object.find(key);
      if (it == event.object.end() || it->second.kind != kind) {
        return Error(ErrorCode::kInvalidArgument,
                     std::string("trace event missing required field: ") + key);
      }
      return &it->second;
    };
    TYCHE_ASSIGN_OR_RETURN(const JsonValue* name, require("name", JsonValue::Kind::kString));
    TYCHE_ASSIGN_OR_RETURN(const JsonValue* phase, require("ph", JsonValue::Kind::kString));
    TYCHE_ASSIGN_OR_RETURN(const JsonValue* ts, require("ts", JsonValue::Kind::kNumber));
    TYCHE_ASSIGN_OR_RETURN(const JsonValue* pid, require("pid", JsonValue::Kind::kNumber));
    TYCHE_ASSIGN_OR_RETURN(const JsonValue* tid, require("tid", JsonValue::Kind::kNumber));
    parsed.name = name->string;
    parsed.phase = phase->string;
    parsed.ts = ts->number;
    parsed.pid = static_cast<int64_t>(pid->number);
    parsed.tid = static_cast<int64_t>(tid->number);
    if (parsed.phase == "X") {
      TYCHE_ASSIGN_OR_RETURN(const JsonValue* dur, require("dur", JsonValue::Kind::kNumber));
      parsed.dur = dur->number;
    }
    const auto args = event.object.find("args");
    if (args != event.object.end() && args->second.kind == JsonValue::Kind::kObject) {
      const auto span = args->second.object.find("span");
      if (span != args->second.object.end() &&
          span->second.kind == JsonValue::Kind::kNumber) {
        parsed.span = static_cast<uint64_t>(span->second.number);
      }
    }
    events.push_back(std::move(parsed));
  }
  return events;
}

}  // namespace tyche
