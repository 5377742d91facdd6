#include "src/workloads/sessionization.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "src/common/logging.h"
#include "src/util/coding.h"

namespace onepass {

namespace {

struct Entry {
  uint64_t ts;
  uint32_t url;
};

// Output value: [session: fixed64][ts: fixed64][url: fixed32], padded
// with 'x' to payload_bytes. Callers size the buffer; this writes the
// fields over its first kSessionOutputBytes.
constexpr size_t kSessionOutputBytes = 20;

void WriteSessionOutput(char* p, uint64_t session, uint64_t ts,
                        uint32_t url) {
  std::memcpy(p, &session, 8);
  std::memcpy(p + 8, &ts, 8);
  std::memcpy(p + 16, &url, 4);
}

// State accessors. Layout: [count: fixed32][count * entry], entry =
// [ts: fixed64][url: fixed32][padding to payload_bytes]. The count is
// clamped to the entries the bytes can hold, so a short state is never
// read past its end.
size_t StateCount(std::string_view state, size_t payload_bytes) {
  if (state.size() < 4) return 0;
  return std::min<size_t>(DecodeFixed32(state.data()),
                          (state.size() - 4) / payload_bytes);
}

const char* StateEntryAt(std::string_view state, size_t payload_bytes,
                         size_t i) {
  return state.data() + 4 + i * payload_bytes;
}

uint64_t StateTs(std::string_view state, size_t payload_bytes, size_t i) {
  return DecodeFixed64(StateEntryAt(state, payload_bytes, i));
}

void SetStateCount(std::string* state, size_t count) {
  const uint32_t v = static_cast<uint32_t>(count);
  std::memcpy(state->data(), &v, 4);
}

// Emits n ts-sorted clicks, click(i) -> Entry, as sessions split at >5 min
// gaps; a session's id is its first click's ts. Every output value is
// encoded into `value`, which is reused across clicks (and calls).
template <typename ClickAt>
void EmitSessions(std::string_view key, size_t n, const ClickAt& click,
                  size_t payload_bytes, std::string* value, Emitter* out) {
  if (n == 0) return;
  value->assign(std::max(kSessionOutputBytes, payload_bytes), 'x');
  uint64_t session = 0;
  uint64_t prev = 0;
  for (size_t i = 0; i < n; ++i) {
    const Entry e = click(i);
    if (i == 0 || e.ts > prev + kSessionGapSeconds) session = e.ts;
    WriteSessionOutput(value->data(), session, e.ts, e.url);
    out->Emit(key, *value);
    prev = e.ts;
  }
}

// EmitSessions over the first n entries of an encoded state.
void EmitStateSessions(std::string_view key, std::string_view state,
                       size_t n, size_t payload_bytes, std::string* value,
                       Emitter* out) {
  EmitSessions(
      key, n,
      [&](size_t i) {
        const char* p = StateEntryAt(state, payload_bytes, i);
        return Entry{DecodeFixed64(p), DecodeFixed32(p + 8)};
      },
      payload_bytes, value, out);
}

}  // namespace

std::string EncodeClickPayload(uint64_t ts, uint32_t url,
                               size_t payload_bytes) {
  std::string out;
  out.reserve(payload_bytes);
  PutFixed64(&out, ts);
  PutFixed32(&out, url);
  if (out.size() < payload_bytes) out.resize(payload_bytes, 'x');
  return out;
}

bool DecodeClickPayload(std::string_view data, uint64_t* ts, uint32_t* url) {
  if (data.size() < 12) return false;
  *ts = DecodeFixed64(data.data());
  *url = DecodeFixed32(data.data() + 8);
  return true;
}

std::string EncodeSessionOutput(uint64_t session, uint64_t ts, uint32_t url,
                                size_t payload_bytes) {
  std::string out(std::max(kSessionOutputBytes, payload_bytes), 'x');
  WriteSessionOutput(out.data(), session, ts, url);
  return out;
}

bool DecodeSessionOutput(std::string_view data, uint64_t* session,
                         uint64_t* ts, uint32_t* url) {
  if (data.size() < 20) return false;
  *session = DecodeFixed64(data.data());
  *ts = DecodeFixed64(data.data() + 8);
  *url = DecodeFixed32(data.data() + 16);
  return true;
}

void SessionizationMapper::Map(std::string_view /*key*/,
                               std::string_view value, Emitter* out) {
  Click c;
  if (!DecodeClick(value, &c)) return;
  out->Emit(UserKey(c.user), EncodeClickPayload(c.ts, c.url, payload_bytes_));
}

void SessionizationReducer::Reduce(std::string_view key,
                                   ValueIterator* values, Emitter* out) {
  std::vector<Entry> entries;
  std::string_view v;
  while (values->Next(&v)) {
    Entry e;
    if (DecodeClickPayload(v, &e.ts, &e.url)) entries.push_back(e);
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const Entry& a, const Entry& b) { return a.ts < b.ts; });
  std::string value;
  EmitSessions(
      key, entries.size(), [&](size_t i) { return entries[i]; },
      payload_bytes_, &value, out);
}

SessionizationIncReducer::SessionizationIncReducer(uint64_t state_bytes,
                                                   size_t payload_bytes)
    : state_bytes_(state_bytes), payload_bytes_(payload_bytes) {
  CHECK_GE(payload_bytes, 12u);
  CHECK_GE(state_bytes, 4 + payload_bytes);
  capacity_clicks_ =
      std::max<size_t>(2, (state_bytes - 4) / payload_bytes);
}

std::string SessionizationIncReducer::Init(std::string_view /*key*/,
                                           std::string_view value) {
  uint64_t ts = 0;
  uint32_t url = 0;
  CHECK(DecodeClickPayload(value, &ts, &url));
  watermark_ = std::max(watermark_, ts);
  std::string state;
  state.reserve(4 + payload_bytes_);
  PutFixed32(&state, 1);
  PutFixed64(&state, ts);
  PutFixed32(&state, url);
  state.resize(4 + payload_bytes_, 'x');
  return state;
}

void SessionizationIncReducer::Combine(std::string_view /*key*/,
                                       std::string* state,
                                       std::string_view other) {
  // Splice the (usually single-click) other state's entries into ours,
  // keeping the buffer ts-sorted; equal timestamps go after the existing
  // ones. Shuffle order is approximately temporal, so the common case is
  // an append.
  const size_t pb = payload_bytes_;
  size_t n = StateCount(*state, pb);
  if (state->size() < 4) state->assign(4, '\0');
  const size_t theirs = StateCount(other, pb);
  for (size_t j = 0; j < theirs; ++j) {
    const char* entry = StateEntryAt(other, pb, j);
    const uint64_t ts = DecodeFixed64(entry);
    watermark_ = std::max(watermark_, ts);
    size_t lo = 0;
    size_t hi = n;
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      if (ts < StateTs(*state, pb, mid)) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    state->insert(4 + lo * pb, entry, pb);
    ++n;
  }
  SetStateCount(state, n);
}

void SessionizationIncReducer::OnUpdate(std::string_view key,
                                        std::string* state, Emitter* out) {
  const size_t pb = payload_bytes_;
  const size_t n = StateCount(*state, pb);
  if (n == 0) return;
  // Find the start of the trailing open session: the last index i with
  // ts[i] > ts[i-1] + gap.
  size_t open_start = 0;
  uint64_t prev = StateTs(*state, pb, 0);
  for (size_t i = 1; i < n; ++i) {
    const uint64_t ts = StateTs(*state, pb, i);
    if (ts > prev + kSessionGapSeconds) open_start = i;
    prev = ts;
  }
  size_t emit_upto = open_start;
  // Bounded buffer: if the open session alone overflows the buffer,
  // force-emit its oldest clicks too.
  if (n - emit_upto > capacity_clicks_) emit_upto = n - capacity_clicks_;
  if (emit_upto == 0) return;
  EmitStateSessions(key, *state, emit_upto, pb, &value_, out);
  state->erase(4, emit_upto * pb);
  SetStateCount(state, n - emit_upto);
}

void SessionizationIncReducer::Finalize(std::string_view key,
                                        std::string_view state,
                                        Emitter* out) {
  EmitStateSessions(key, state, StateCount(state, payload_bytes_),
                    payload_bytes_, &value_, out);
}

bool SessionizationIncReducer::TryDiscard(std::string_view key,
                                          std::string* state, Emitter* out) {
  const size_t n = StateCount(*state, payload_bytes_);
  if (n == 0) return true;
  // All sessions expired relative to the stream watermark? Then no future
  // click can join them: emit and discard instead of spilling (§6.2).
  if (StateTs(*state, payload_bytes_, n - 1) + kSessionGapSeconds <
      watermark_) {
    EmitStateSessions(key, *state, n, payload_bytes_, &value_, out);
    state->clear();
    return true;
  }
  return false;
}

}  // namespace onepass
