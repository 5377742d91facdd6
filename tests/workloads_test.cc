// Workload tests: generator properties, encodings, and the reducer
// implementations' unit-level semantics.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/util/coding.h"
#include "src/util/random.h"
#include "src/workloads/clickstream.h"
#include "src/workloads/count_workloads.h"
#include "src/workloads/documents.h"
#include "src/workloads/reference.h"
#include "src/workloads/sessionization.h"

namespace onepass {
namespace {

// ---- click encoding ----

TEST(ClickEncodingTest, RoundTrip) {
  Click c{123456, 789, 42};
  const std::string enc = EncodeClick(c, 64);
  EXPECT_EQ(enc.size(), 64u);
  Click d;
  ASSERT_TRUE(DecodeClick(enc, &d));
  EXPECT_EQ(d.ts, c.ts);
  EXPECT_EQ(d.user, c.user);
  EXPECT_EQ(d.url, c.url);
}

TEST(ClickEncodingTest, RejectsShortData) {
  Click d;
  EXPECT_FALSE(DecodeClick("short", &d));
}

TEST(ClickEncodingTest, UserKeyOrderMatchesNumericOrder) {
  EXPECT_LT(UserKey(5), UserKey(40));
  EXPECT_LT(UserKey(99), UserKey(100));
  EXPECT_LT(UserKey(999'999), UserKey(1'000'000));
}

TEST(SessionPayloadTest, RoundTrips) {
  uint64_t ts;
  uint32_t url;
  const std::string p = EncodeClickPayload(777, 12, 64);
  EXPECT_EQ(p.size(), 64u);
  ASSERT_TRUE(DecodeClickPayload(p, &ts, &url));
  EXPECT_EQ(ts, 777u);
  EXPECT_EQ(url, 12u);

  uint64_t session;
  const std::string o = EncodeSessionOutput(700, 777, 12, 64);
  ASSERT_TRUE(DecodeSessionOutput(o, &session, &ts, &url));
  EXPECT_EQ(session, 700u);
}

// ---- generators ----

TEST(ClickStreamTest, TimestampsAreNonDecreasing) {
  ClickStreamConfig cfg;
  cfg.num_clicks = 5'000;
  cfg.num_users = 100;
  ChunkStore input(32 << 10, 3);
  GenerateClickStream(cfg, &input);
  uint64_t prev = 0;
  for (const Chunk& chunk : input.chunks()) {
    KvBufferReader reader(chunk.records);
    std::string_view k, v;
    while (reader.Next(&k, &v)) {
      Click c;
      ASSERT_TRUE(DecodeClick(v, &c));
      EXPECT_GE(c.ts, prev);
      prev = c.ts;
      EXPECT_LT(c.user, cfg.num_users);
      EXPECT_LT(c.url, cfg.num_urls);
    }
  }
  EXPECT_EQ(input.total_records(), 5'000u);
}

TEST(ClickStreamTest, SessionBurstinessLimitsDistinctUsersPerChunk) {
  ClickStreamConfig cfg;
  cfg.num_clicks = 40'000;
  cfg.num_users = 20'000;
  cfg.active_sessions = 30;
  cfg.mean_session_clicks = 8;
  ChunkStore input(64 << 10, 4);
  GenerateClickStream(cfg, &input);
  // Each ~900-click chunk should see far fewer distinct users than
  // clicks: roughly active + churn = 30 + 900/8 ~ 140.
  for (const Chunk& chunk : input.chunks()) {
    std::set<uint64_t> users;
    KvBufferReader reader(chunk.records);
    std::string_view k, v;
    uint64_t clicks = 0;
    while (reader.Next(&k, &v)) {
      Click c;
      ASSERT_TRUE(DecodeClick(v, &c));
      users.insert(c.user);
      ++clicks;
    }
    if (clicks < 500) continue;  // final partial chunk
    EXPECT_LT(users.size(), clicks / 2);
  }
}

TEST(ClickStreamTest, PopularityFollowsSkew) {
  ClickStreamConfig cfg;
  cfg.num_clicks = 60'000;
  cfg.num_users = 10'000;
  cfg.user_skew = 1.0;
  ChunkStore input(1 << 20, 2);
  GenerateClickStream(cfg, &input);
  std::map<uint64_t, uint64_t> counts;
  for (const Chunk& chunk : input.chunks()) {
    KvBufferReader reader(chunk.records);
    std::string_view k, v;
    while (reader.Next(&k, &v)) {
      Click c;
      ASSERT_TRUE(DecodeClick(v, &c));
      ++counts[c.user];
    }
  }
  // Low ranks must dominate high ranks.
  uint64_t top100 = 0, total = 0;
  for (const auto& [u, c] : counts) {
    if (u < 100) top100 += c;
    total += c;
  }
  EXPECT_GT(top100, total / 5);
}

TEST(DocumentsTest, ShapeAndDeterminism) {
  DocumentCorpusConfig cfg;
  cfg.num_records = 500;
  cfg.words_per_record = 10;
  ChunkStore a(64 << 10, 2), b(64 << 10, 2);
  GenerateDocuments(cfg, &a);
  GenerateDocuments(cfg, &b);
  EXPECT_EQ(a.total_bytes(), b.total_bytes());
  EXPECT_EQ(a.total_records(), 500u);
  KvBufferReader reader(a.chunks()[0].records);
  std::string_view k, v;
  ASSERT_TRUE(reader.Next(&k, &v));
  // 10 words of 7 chars + 9 spaces.
  EXPECT_EQ(v.size(), 10 * 7 + 9u);
}

// ---- counting reducers ----

TEST(CountStateTest, RoundTrip) {
  uint64_t c;
  bool e;
  ASSERT_TRUE(DecodeCountState(EncodeCountState(42, true), &c, &e));
  EXPECT_EQ(c, 42u);
  EXPECT_TRUE(e);
  ASSERT_TRUE(DecodeCountState(EncodeCountState(0, false), &c, &e));
  EXPECT_EQ(c, 0u);
  EXPECT_FALSE(e);
  EXPECT_FALSE(DecodeCountState("tiny", &c, &e));
}

TEST(CountingIncReducerTest, CombineSumsAndOrsFlags) {
  CountingIncReducer red(0);
  std::string state = red.Init("k", EncodeCountState(3, false));
  red.Combine("k", &state, EncodeCountState(4, true));
  uint64_t c;
  bool e;
  ASSERT_TRUE(DecodeCountState(state, &c, &e));
  EXPECT_EQ(c, 7u);
  EXPECT_TRUE(e);
}

class VectorEmitter : public Emitter {
 public:
  void Emit(std::string_view key, std::string_view value) override {
    records.push_back(Record{std::string(key), std::string(value)});
  }
  std::vector<Record> records;
};

TEST(CountingIncReducerTest, ThresholdEmitsOnceAcrossEarlyAndFinal) {
  CountingIncReducer red(10);
  VectorEmitter out;
  std::string state = red.Init("k", EncodeCountState(6, false));
  red.OnUpdate("k", &state, &out);
  EXPECT_TRUE(out.records.empty());
  red.Combine("k", &state, EncodeCountState(5, false));
  red.OnUpdate("k", &state, &out);
  ASSERT_EQ(out.records.size(), 1u);  // crossed 10 -> emitted early
  red.Finalize("k", state, &out);
  EXPECT_EQ(out.records.size(), 1u);  // flag prevents re-emission
}

TEST(CountingIncReducerTest, NoThresholdEmitsOnlyAtFinalize) {
  CountingIncReducer red(0);
  VectorEmitter out;
  std::string state = red.Init("k", EncodeCountState(5, false));
  red.OnUpdate("k", &state, &out);
  EXPECT_TRUE(out.records.empty());
  red.Finalize("k", state, &out);
  ASSERT_EQ(out.records.size(), 1u);
  EXPECT_EQ(out.records[0].value, "5");
}

TEST(TrigramMapperTest, EmitsSlidingWindows) {
  TrigramMapper mapper;
  VectorEmitter out;
  mapper.Map("", "aa bb cc dd", &out);
  ASSERT_EQ(out.records.size(), 2u);
  EXPECT_EQ(out.records[0].key, "aa bb cc");
  EXPECT_EQ(out.records[1].key, "bb cc dd");
}

TEST(TrigramMapperTest, ShortLinesEmitNothing) {
  TrigramMapper mapper;
  VectorEmitter out;
  mapper.Map("", "one two", &out);
  mapper.Map("", "", &out);
  mapper.Map("", "solo", &out);
  EXPECT_TRUE(out.records.empty());
}

// ---- sessionization incremental reducer ----

std::string ClickState(SessionizationIncReducer* red, uint64_t ts,
                       uint32_t url) {
  return red->Init("u", EncodeClickPayload(ts, url, 64));
}

TEST(SessionizationIncReducerTest, ClosedSessionStreamsOut) {
  SessionizationIncReducer red(2048, 64);
  VectorEmitter out;
  std::string state = ClickState(&red, 100, 1);
  red.Combine("u", &state, ClickState(&red, 150, 2));
  red.OnUpdate("u", &state, &out);
  EXPECT_TRUE(out.records.empty());  // session still open

  // A click 400s later closes the first session.
  red.Combine("u", &state, ClickState(&red, 600, 3));
  red.OnUpdate("u", &state, &out);
  ASSERT_EQ(out.records.size(), 2u);  // the two old clicks
  uint64_t session, ts;
  uint32_t url;
  ASSERT_TRUE(DecodeSessionOutput(out.records[0].value, &session, &ts, &url));
  EXPECT_EQ(session, 100u);
  EXPECT_EQ(ts, 100u);
  ASSERT_TRUE(DecodeSessionOutput(out.records[1].value, &session, &ts, &url));
  EXPECT_EQ(session, 100u);
  EXPECT_EQ(ts, 150u);

  // Finalize flushes the open session.
  red.Finalize("u", state, &out);
  ASSERT_EQ(out.records.size(), 3u);
  ASSERT_TRUE(DecodeSessionOutput(out.records[2].value, &session, &ts, &url));
  EXPECT_EQ(session, 600u);
}

TEST(SessionizationIncReducerTest, OutOfOrderClicksAreReordered) {
  SessionizationIncReducer red(2048, 64);
  VectorEmitter out;
  std::string state = ClickState(&red, 200, 1);
  red.Combine("u", &state, ClickState(&red, 100, 2));  // arrives late
  red.Combine("u", &state, ClickState(&red, 150, 3));
  red.Finalize("u", state, &out);
  ASSERT_EQ(out.records.size(), 3u);
  uint64_t session, ts;
  uint32_t url;
  uint64_t prev_ts = 0;
  for (const Record& r : out.records) {
    ASSERT_TRUE(DecodeSessionOutput(r.value, &session, &ts, &url));
    EXPECT_GE(ts, prev_ts);
    EXPECT_EQ(session, 100u);  // one session, earliest click is its id
    prev_ts = ts;
  }
}

TEST(SessionizationIncReducerTest, BufferOverflowForceEmits) {
  SessionizationIncReducer red(/*state_bytes=*/4 + 3 * 64, 64);  // 3 clicks
  VectorEmitter out;
  std::string state = ClickState(&red, 100, 1);
  for (int i = 1; i < 10; ++i) {
    red.Combine("u", &state, ClickState(&red, 100 + i, 0));
    red.OnUpdate("u", &state, &out);
  }
  // All clicks are within one open session, but the buffer holds only 3;
  // the rest were force-emitted.
  EXPECT_GE(out.records.size(), 6u);
  red.Finalize("u", state, &out);
  EXPECT_EQ(out.records.size(), 10u);  // every click exactly once
}

TEST(SessionizationIncReducerTest, TryDiscardOnlyWhenExpired) {
  SessionizationIncReducer red(2048, 64);
  VectorEmitter out;
  std::string state = ClickState(&red, 100, 1);
  // Watermark is 100: session not expired.
  EXPECT_FALSE(red.TryDiscard("u", &state, &out));
  EXPECT_TRUE(out.records.empty());
  // Another user's click advances the watermark far beyond expiry.
  std::string other = ClickState(&red, 10'000, 2);
  EXPECT_TRUE(red.TryDiscard("u", &state, &out));
  ASSERT_EQ(out.records.size(), 1u);  // emitted, not spilled
  (void)other;
}

TEST(SessionizationIncReducerDeathTest, RejectsStateTooSmallForOneClick) {
  // 4 - 64 would underflow the capacity computation.
  EXPECT_DEATH(SessionizationIncReducer(3, 64), "state_bytes");
  EXPECT_DEATH(SessionizationIncReducer(4 + 63, 64), "state_bytes");
  EXPECT_DEATH(SessionizationIncReducer(4 + 11, 12), "state_bytes");
  SessionizationIncReducer smallest(4 + 12, 12);
  EXPECT_EQ(smallest.StateBytesHint(), 16u);
}

TEST(SessionizationIncReducerTest, ShortStatesAreReadWithinBounds) {
  // The count claims more entries than the bytes hold: every call reads
  // only the entries that are really there.
  SessionizationIncReducer red(512, 64);
  VectorEmitter out;
  std::string state = ClickState(&red, 100, 1);
  state[0] = 9;  // count 9, one entry present
  red.Finalize("u", state, &out);
  ASSERT_EQ(out.records.size(), 1u);
  red.Combine("u", &state, ClickState(&red, 150, 2));
  EXPECT_EQ(state.size(), 4u + 2 * 64);
  EXPECT_EQ(static_cast<uint8_t>(state[0]), 2u);
  std::string truncated = state.substr(0, 4 + 64 + 10);
  EXPECT_FALSE(red.TryDiscard("u", &truncated, &out));
  std::string tiny = "ab";
  red.OnUpdate("u", &tiny, &out);
  EXPECT_TRUE(red.TryDiscard("u", &tiny, &out));
  red.Finalize("u", tiny, &out);
  EXPECT_EQ(out.records.size(), 1u);
  red.Combine("u", &tiny, ClickState(&red, 200, 3));
  EXPECT_EQ(tiny, ClickState(&red, 200, 3));
}

// The decode/rebuild sessionization reducer the in-place one replaced,
// kept as the reference model: every call decodes the state into a vector
// and re-encodes it.
class RebuildSessionizationReducer {
 public:
  RebuildSessionizationReducer(uint64_t state_bytes, size_t payload_bytes)
      : payload_bytes_(payload_bytes),
        capacity_clicks_(
            std::max<size_t>(2, (state_bytes - 4) / payload_bytes)) {}

  std::string Init(std::string_view value) {
    Entry e{0, 0};
    EXPECT_TRUE(DecodeClickPayload(value, &e.ts, &e.url));
    watermark_ = std::max(watermark_, e.ts);
    std::string state;
    Append(&state, e);
    return state;
  }

  void Combine(std::string* state, std::string_view other) {
    std::vector<Entry> mine = Entries(*state);
    for (const Entry& e : Entries(other)) {
      watermark_ = std::max(watermark_, e.ts);
      auto it = std::upper_bound(
          mine.begin(), mine.end(), e,
          [](const Entry& a, const Entry& b) { return a.ts < b.ts; });
      mine.insert(it, e);
    }
    Rebuild(state, mine);
  }

  void OnUpdate(std::string_view key, std::string* state, Emitter* out) {
    std::vector<Entry> entries = Entries(*state);
    if (entries.empty()) return;
    size_t open_start = 0;
    for (size_t i = 1; i < entries.size(); ++i) {
      if (entries[i].ts > entries[i - 1].ts + kSessionGapSeconds) {
        open_start = i;
      }
    }
    size_t emit_upto = open_start;
    if (entries.size() - emit_upto > capacity_clicks_) {
      emit_upto = entries.size() - capacity_clicks_;
    }
    if (emit_upto == 0) return;
    Emit(key, entries, emit_upto, out);
    entries.erase(entries.begin(),
                  entries.begin() + static_cast<ptrdiff_t>(emit_upto));
    Rebuild(state, entries);
  }

  void Finalize(std::string_view key, std::string_view state, Emitter* out) {
    const std::vector<Entry> entries = Entries(state);
    Emit(key, entries, entries.size(), out);
  }

  bool TryDiscard(std::string_view key, std::string* state, Emitter* out) {
    const std::vector<Entry> entries = Entries(*state);
    if (entries.empty()) return true;
    if (entries.back().ts + kSessionGapSeconds < watermark_) {
      Emit(key, entries, entries.size(), out);
      state->clear();
      return true;
    }
    return false;
  }

  uint64_t watermark() const { return watermark_; }

 private:
  struct Entry {
    uint64_t ts;
    uint32_t url;
  };

  std::vector<Entry> Entries(std::string_view state) const {
    const uint32_t n = state.size() >= 4 ? DecodeFixed32(state.data()) : 0;
    std::vector<Entry> out;
    for (uint32_t i = 0; i < n; ++i) {
      const char* p = state.data() + 4 + i * payload_bytes_;
      out.push_back(Entry{DecodeFixed64(p), DecodeFixed32(p + 8)});
    }
    return out;
  }

  void Append(std::string* state, const Entry& e) const {
    if (state->empty()) PutFixed32(state, 0);
    const size_t pos = state->size();
    PutFixed64(state, e.ts);
    PutFixed32(state, e.url);
    if (state->size() - pos < payload_bytes_) {
      state->resize(pos + payload_bytes_, 'x');
    }
    const uint32_t count = DecodeFixed32(state->data()) + 1;
    std::string hdr;
    PutFixed32(&hdr, count);
    state->replace(0, 4, hdr);
  }

  void Rebuild(std::string* state, const std::vector<Entry>& entries) const {
    state->clear();
    for (const Entry& e : entries) Append(state, e);
    if (state->empty()) PutFixed32(state, 0);
  }

  void Emit(std::string_view key, const std::vector<Entry>& entries,
            size_t end, Emitter* out) const {
    if (end == 0) return;
    uint64_t session = entries[0].ts;
    uint64_t prev = entries[0].ts;
    for (size_t i = 0; i < end; ++i) {
      if (entries[i].ts > prev + kSessionGapSeconds) session = entries[i].ts;
      out->Emit(key, EncodeSessionOutput(session, entries[i].ts,
                                         entries[i].url, payload_bytes_));
      prev = entries[i].ts;
    }
  }

  size_t payload_bytes_;
  size_t capacity_clicks_;
  uint64_t watermark_ = 0;
};

struct DiffShape {
  uint64_t state_bytes;
  size_t payload_bytes;
};

class SessionizationInPlaceDiffTest
    : public ::testing::TestWithParam<DiffShape> {};

// Seeded random click sequences through the in-place reducer and the
// decode/rebuild model: after every call the states, the emitted records,
// the watermark and the TryDiscard result must be identical.
TEST_P(SessionizationInPlaceDiffTest, MatchesDecodeRebuildModel) {
  const DiffShape shape = GetParam();
  const size_t pb = shape.payload_bytes;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    SessionizationIncReducer red(shape.state_bytes, pb);
    RebuildSessionizationReducer model(shape.state_bytes, pb);
    VectorEmitter red_out;
    VectorEmitter model_out;
    Xoshiro256StarStar rng(seed);
    constexpr int kUsers = 3;
    std::string red_states[kUsers];
    std::string model_states[kUsers];
    uint64_t last_ts[kUsers] = {};
    uint64_t clock = 1000;

    auto expect_same = [&](const char* step) {
      SCOPED_TRACE(step);
      for (int u = 0; u < kUsers; ++u) {
        ASSERT_EQ(red_states[u], model_states[u]) << "user " << u;
      }
      ASSERT_EQ(red_out.records, model_out.records);
      ASSERT_EQ(red.watermark(), model.watermark());
    };
    // Next click timestamp for user u: equal, out-of-order, exactly the
    // session gap, one past it, a burst step or a long jump.
    auto next_ts = [&](int u) {
      uint64_t ts = 0;
      switch (rng.NextBounded(6)) {
        case 0: ts = last_ts[u]; break;
        case 1: ts = last_ts[u] - std::min(last_ts[u], rng.NextBounded(400));
                break;
        case 2: ts = last_ts[u] + kSessionGapSeconds; break;
        case 3: ts = last_ts[u] + kSessionGapSeconds + 1; break;
        case 4: ts = last_ts[u] + rng.NextBounded(20); break;
        default: ts = clock + rng.NextBounded(2000); break;
      }
      clock = std::max(clock, ts);
      last_ts[u] = std::max(last_ts[u], ts);
      return ts;
    };
    auto click = [&](int u) {
      return EncodeClickPayload(next_ts(u),
                                static_cast<uint32_t>(rng.NextBounded(1000)),
                                pb);
    };

    for (int step = 0; step < 300; ++step) {
      const int u = static_cast<int>(rng.NextBounded(kUsers));
      const std::string key = "u" + std::to_string(u);
      switch (rng.NextBounded(8)) {
        case 0:
        case 1:
        case 2: {  // one click, then OnUpdate (the INC-hash reduce path)
          const std::string value = click(u);
          const std::string red_init = red.Init(key, value);
          const std::string model_init = model.Init(value);
          ASSERT_EQ(red_init, model_init);
          if (red_states[u].empty() && rng.NextBool(0.5)) {
            red_states[u] = red_init;
            model_states[u] = model_init;
          } else {
            red.Combine(key, &red_states[u], red_init);
            model.Combine(&model_states[u], model_init);
          }
          expect_same("combine");
          red.OnUpdate(key, &red_states[u], &red_out);
          model.OnUpdate(key, &model_states[u], &model_out);
          expect_same("on-update");
          break;
        }
        case 3: {  // multi-entry other, Combine only (the bucket pass)
          const size_t clicks = 1 + rng.NextBounded(6);
          std::string red_other;
          std::string model_other;
          for (size_t i = 0; i < clicks; ++i) {
            const std::string value = click(u);
            if (i == 0) {
              red_other = red.Init(key, value);
              model_other = model.Init(value);
            } else {
              red.Combine(key, &red_other, red.Init(key, value));
              model.Combine(&model_other, model.Init(value));
            }
            ASSERT_EQ(red_other, model_other);
          }
          red.Combine(key, &red_states[u], red_other);
          model.Combine(&model_states[u], model_other);
          expect_same("combine-multi");
          break;
        }
        case 4:
        case 5: {  // DINC eviction hook; another user may move the clock
          if (rng.NextBool(0.3)) clock += kSessionGapSeconds + 1;
          const bool red_discard = red.TryDiscard(key, &red_states[u],
                                                  &red_out);
          const bool model_discard = model.TryDiscard(key, &model_states[u],
                                                       &model_out);
          ASSERT_EQ(red_discard, model_discard);
          expect_same("try-discard");
          break;
        }
        case 6: {  // Finalize a copy (the engine's end-of-input flush)
          red.Finalize(key, red_states[u], &red_out);
          model.Finalize(key, model_states[u], &model_out);
          expect_same("finalize");
          break;
        }
        default: {  // OnUpdate with no new click
          red.OnUpdate(key, &red_states[u], &red_out);
          model.OnUpdate(key, &model_states[u], &model_out);
          expect_same("on-update-idle");
          break;
        }
      }
    }
    for (int u = 0; u < kUsers; ++u) {
      red.Finalize("u", red_states[u], &red_out);
      model.Finalize("u", model_states[u], &model_out);
    }
    expect_same("final");
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SessionizationInPlaceDiffTest,
    ::testing::Values(DiffShape{512, 64},          // the benchmark shape
                      DiffShape{4 + 3 * 64, 64},   // overflow force-emits
                      DiffShape{4 + 4 * 12, 12},   // minimum payload
                      DiffShape{100, 64},          // (100-4) % 64 != 0
                      DiffShape{4 + 5 * 12 + 7, 12},
                      DiffShape{2048, 64}));

TEST(SessionizationListReducerTest, MatchesIncrementalSemantics) {
  // The values-list reducer and the incremental reducer agree on a
  // scrambled click set.
  std::vector<uint64_t> times = {500, 100, 130, 900, 120, 910};
  SessionizationReducer list_red(64);
  class VecIter : public ValueIterator {
   public:
    explicit VecIter(std::vector<std::string>* v) : v_(v) {}
    bool Next(std::string_view* value) override {
      if (i_ >= v_->size()) return false;
      *value = (*v_)[i_++];
      return true;
    }

   private:
    std::vector<std::string>* v_;
    size_t i_ = 0;
  };
  std::vector<std::string> values;
  for (uint64_t t : times) {
    values.push_back(EncodeClickPayload(t, 0, 64));
  }
  VectorEmitter list_out;
  VecIter it(&values);
  list_red.Reduce("u", &it, &list_out);

  SessionizationIncReducer inc_red(1 << 16, 64);
  VectorEmitter inc_out;
  std::string state = inc_red.Init("u", values[0]);
  for (size_t i = 1; i < values.size(); ++i) {
    inc_red.Combine("u", &state, inc_red.Init("u", values[i]));
  }
  inc_red.Finalize("u", state, &inc_out);

  auto sorted = [](std::vector<Record> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  EXPECT_EQ(sorted(list_out.records), sorted(inc_out.records));
}

// ---- reference implementations ----

TEST(ReferenceTest, SessionizationCountsEveryClickOnce) {
  ClickStreamConfig cfg;
  cfg.num_clicks = 2'000;
  cfg.num_users = 50;
  ChunkStore input(32 << 10, 2);
  GenerateClickStream(cfg, &input);
  const auto out = ReferenceSessionization(input, 64);
  EXPECT_EQ(out.size(), 2'000u);
  const auto counts = ReferenceClickCounts(input, ClickKeyField::kUser);
  uint64_t total = 0;
  for (const auto& [k, c] : counts) total += c;
  EXPECT_EQ(total, 2'000u);
}

TEST(ReferenceTest, TrigramCountsMatchManualLine) {
  ChunkStore input(1 << 20, 1);
  input.Append("", "a b a b a");
  input.Seal();
  const auto counts = ReferenceTrigramCounts(input);
  EXPECT_EQ(counts.at("a b a"), 2u);
  EXPECT_EQ(counts.at("b a b"), 1u);
  EXPECT_EQ(counts.size(), 2u);
}

}  // namespace
}  // namespace onepass
