// Renderings of a finished job for tests that compare runs: Fingerprint()
// for byte identity, SortedOutputs() for the answer as a multiset.

#ifndef ONEPASS_TESTS_JOB_RESULT_UTIL_H_
#define ONEPASS_TESTS_JOB_RESULT_UTIL_H_

#include <algorithm>
#include <charconv>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "src/mr/cluster.h"
#include "src/sim/timeline.h"

namespace onepass {

// Appends "name=value" lines, exactly: std::to_chars writes the shortest
// text that round-trips a double, and every integer field rendered here
// is far below 2^53.
inline void Put(std::string* fp,
                std::initializer_list<std::pair<const char*, double>> fields) {
  for (const auto& [name, v] : fields) {
    char buf[32];  // the shortest round-trip form needs at most 24
    const size_t n = std::to_chars(buf, buf + sizeof(buf), v).ptr - buf;
    fp->append(name).append(1, '=').append(buf, n).append(1, '\n');
  }
}

inline void Put(std::string* fp, const char* name,
                const sim::StepSeries& s) {
  fp->append(name).append(1, '\n');
  for (size_t i = 0; i < s.times.size(); ++i) {
    Put(fp, {{" t", s.times[i]}, {" v", s.values[i]}});
  }
}

inline void Put(std::string* fp, const char* name,
                const sim::BinnedSeries& s) {
  Put(fp, {{name, s.bin_seconds}});
  for (double v : s.values) Put(fp, {{" v", v}});
}

// Every deterministic field of a JobResult, outputs in order. Excludes
// only map_plane_wall_s and reduce_plane_wall_s, which measure the host.
inline std::string Fingerprint(const JobResult& r) {
  std::string fp = r.metrics.Serialize();
  Put(&fp, {{"running_time", r.running_time},
            {"map_finish_time", r.map_finish_time},
            {"map_tasks", r.map_tasks}, {"reduce_tasks", r.reduce_tasks},
            {"shuffle_from_disk_bytes", r.shuffle_from_disk_bytes},
            {"map_cpu_s", r.map_cpu_s}, {"reduce_cpu_s", r.reduce_cpu_s}});
  Put(&fp, "map_progress", r.map_progress);
  Put(&fp, "reduce_progress", r.reduce_progress);
  Put(&fp, "shuffle_progress", r.shuffle_progress);
  Put(&fp, "reduce_work_progress", r.reduce_work_progress);
  Put(&fp, "output_progress", r.output_progress);
  Put(&fp, "active_map", r.active_map);
  Put(&fp, "active_shuffle", r.active_shuffle);
  Put(&fp, "active_merge", r.active_merge);
  Put(&fp, "active_reduce", r.active_reduce);
  Put(&fp, "cpu_util", r.cpu_util);
  Put(&fp, "iowait", r.iowait);
  for (const Record& rec : r.outputs) {
    fp.append(rec.key).append(1, '=').append(rec.value).append(1, '\n');
  }
  return fp;
}

inline std::string SortedLines(std::vector<std::string> lines) {
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& l : lines) out.append(l).append(1, '\n');
  return out;
}

inline std::string SortedOutputs(const std::vector<Record>& records) {
  std::vector<std::string> lines;
  for (const Record& rec : records) lines.push_back(rec.key + '=' + rec.value);
  return SortedLines(std::move(lines));
}

}  // namespace onepass

#endif  // ONEPASS_TESTS_JOB_RESULT_UTIL_H_
