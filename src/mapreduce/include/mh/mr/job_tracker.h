#pragma once

#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "mh/common/config.h"
#include "mh/mr/job.h"
#include "mh/mr/job_registry.h"
#include "mh/mr/mr_wire.h"
#include "mh/net/network.h"

/// \file job_tracker.h
/// The MapReduce master (Hadoop 1.x JobTracker). Computes input splits from
/// HDFS block locations, hands tasks to heartbeating TaskTrackers with
/// node-local splits first (the Figure-2 integration: "JobTracker assigns
/// work based on block location information from NameNode"), retries failed
/// attempts, re-executes map tasks whose tracker died (their outputs died
/// with it), and aggregates task counters into the job report.
///
/// Push points: the JobTracker sends a `wake` RPC (TaskTracker port) to the
/// trackers that can act on news, after releasing its lock:
///   - a job is submitted: every live tracker;
///   - a report makes the job's reduces launchable (slowstart crossed):
///     every live tracker;
///   - a map-completion event is appended (success or invalidation):
///     trackers running a reduce of that job.
/// The tracker whose heartbeat produced the news is not woken; the reply
/// carries it. A lost wake is harmless: tracker heartbeats stay periodic as
/// the liveness signal and the backstop, and the next one delivers the same
/// state.
///
/// Config keys (defaults):
///   mapred.max.attempts               4
///   mapred.tasktracker.expiry.ms      1000
///   mapred.jobtracker.monitor.interval.ms  50
///   mapred.task.timeout.ms            600000 (<= 0 disables; a Running
///                                     attempt older than this is failed and
///                                     rescheduled — rescues assignments
///                                     whose heartbeat reply was lost)
///   mapred.speculative.execution      false  (launch backup attempts for
///                                     straggler maps; first success wins)
///   mapred.speculative.min.ms         500    (minimum runtime before a
///                                     task can be considered a straggler)
///   mapred.reduce.slowstart.completed.maps  0.05  (fraction of the job's
///                                     maps that must succeed before reduces
///                                     launch; 1.0 restores the blocking
///                                     all-maps-first schedule. Clamped to
///                                     [0, 1]; the job conf overrides the
///                                     cluster conf.)

namespace mh::mr {

class JobTracker {
 public:
  JobTracker(Config conf, std::shared_ptr<net::Network> network,
             std::shared_ptr<JobRegistry> registry,
             std::string host = "jobtracker",
             std::string namenode_host = "namenode");
  ~JobTracker();
  JobTracker(const JobTracker&) = delete;
  JobTracker& operator=(const JobTracker&) = delete;

  /// Binds the RPC port and starts the tracker-expiry monitor.
  void start();
  void stop();

  const std::string& host() const { return host_; }

  /// Validates the spec, computes splits from HDFS, registers the job, and
  /// returns its id. The job runs as trackers heartbeat in.
  JobId submit(JobSpec spec);

  /// Blocks until the job reaches a terminal state.
  JobResult wait(JobId id);

  JobStatus status(JobId id) const;
  std::vector<JobStatus> listJobs() const;

  /// jobdetails.jsp-style text report — the "JobTracker's web interface"
  /// the course has students read map task run times and counters from.
  std::string renderJobDetails(JobId id) const;

  // ----- TaskTracker protocol ----------------------------------------------

  void registerTracker(const std::string& host, uint32_t map_slots,
                       uint32_t reduce_slots,
                       const std::string& rack = "/default-rack");

  TrackerHeartbeatReply trackerHeartbeat(
      const std::string& host, uint32_t free_map_slots,
      uint32_t free_reduce_slots,
      const std::vector<TaskStatusReport>& reports,
      const std::vector<ShuffleEventCursor>& cursors = {});

  /// Test hook: one synchronous expiry pass.
  void runMonitorOnce();

  /// Test hook: the tracker host where `map_index` of `job` currently has a
  /// succeeded output, empty when pending/running/unknown.
  std::string mapLocation(JobId job, uint32_t map_index) const;

 private:
  enum class TaskState : uint8_t { kPending, kRunning, kSucceeded };
  enum class Locality : uint8_t { kNodeLocal, kRackLocal, kRemote };

  struct TaskInProgress {
    TaskState state = TaskState::kPending;
    uint32_t next_attempt = 0;
    uint32_t running_attempt = 0;
    uint32_t failures = 0;
    std::string tracker;  ///< where running / where succeeded
    InputSplit split;     ///< maps only
    Locality locality = Locality::kRemote;  ///< of the current assignment
    int64_t started_ms = 0;  ///< when the current attempt launched
    /// This task's counters as last merged into the job totals. A task
    /// re-executed after its output was lost (fetch failure, dead tracker)
    /// succeeds a second time; its new counters must REPLACE this
    /// contribution, not stack on top of it.
    Counters contributed;
    // Speculative (backup) attempt for stragglers; first success wins.
    bool has_speculative = false;
    uint32_t speculative_attempt = 0;
    std::string speculative_tracker;
    /// Bumped on every success of this (map) task — the scheduler-side
    /// analog of the MapOutputStore slot generation. Completion events
    /// carry it so pipelined reducers can tell a fresh output from a stale
    /// re-announcement.
    uint64_t output_generation = 0;
  };

  /// A job's scheduling state while it runs. When it finishes, its per-task
  /// state (`maps`, `reduces`, `map_events`) is released; what status(),
  /// wait(), listJobs() and the job history still need stays: the final
  /// status, counters, timings, trace identity and the attempt journal.
  struct JobInProgress {
    JobId id = 0;
    std::shared_ptr<const JobSpec> spec;
    std::vector<TaskInProgress> maps;
    std::vector<TaskInProgress> reduces;
    JobState state = JobState::kRunning;
    /// status() of a finished job, taken as it finished.
    JobStatus final_status;
    std::string error;
    Counters counters;
    int64_t map_millis = 0;
    int64_t reduce_millis = 0;
    int64_t submit_ms = 0;
    int64_t finish_ms = 0;
    /// Causal trace identity, minted at submit when tracing is enabled
    /// (zero otherwise). Every assignment carries `trace_id` +
    /// `root_span_id` so MAP/REDUCE spans on remote trackers parent to the
    /// job's root span; the root JOB span itself is recorded at finish,
    /// backdated to `trace_start_us`.
    uint64_t trace_id = 0;
    uint64_t root_span_id = 0;
    int64_t trace_start_us = 0;
    /// JobHistory: every attempt ever scheduled, opened at assignment and
    /// closed by its status report (or tracker expiry).
    std::vector<TaskAttemptRecord> attempts;
    /// Map-completion event feed for pipelined shuffles: success and
    /// invalidation events with monotonic ids, kept for the job's lifetime
    /// and replayed to trackers from whatever cursor they present.
    std::vector<MapCompletionEvent> map_events;
    uint64_t next_event_id = 1;
  };

  struct TrackerInfo {
    std::string rack = "/default-rack";
    uint32_t map_slots = 0;
    uint32_t reduce_slots = 0;
    int64_t last_heartbeat_ms = 0;
    bool alive = false;
  };

  static int64_t steadyMillis();
  void installRpc();
  void openAttemptLocked(JobInProgress& job, bool is_map, uint32_t task_index,
                         uint32_t attempt, const std::string& tracker,
                         bool speculative);
  void closeAttemptLocked(JobInProgress& job, bool is_map,
                          uint32_t task_index, uint32_t attempt,
                          bool succeeded, const std::string& error);
  void processReportLocked(const std::string& tracker_host,
                           const TaskStatusReport& report);
  void assignSpeculativeLocked(const std::string& tracker_host,
                               uint32_t& free_map_slots,
                               std::vector<TaskAssignment>& out);
  void failJobLocked(JobInProgress& job, const std::string& error);
  void finishJobLocked(JobInProgress& job, JobState state);
  bool allMapsDoneLocked(const JobInProgress& job) const;
  /// True once the job's succeeded-map count reaches the slowstart
  /// threshold (ceil(slowstart * maps), at least 1 for a non-empty map
  /// phase), so reduces may launch with a partial location list.
  bool reduceLaunchableLocked(const JobInProgress& job) const;
  /// Appends a success/invalidation event for `map_index` to the job's
  /// event feed (monotonic ids; success events carry the tracker host and
  /// the new output generation).
  void emitMapEventLocked(JobInProgress& job, uint32_t map_index,
                          bool invalidated);
  /// Queues a wake for every live tracker (see pending_wakes_).
  void wakeLiveTrackersLocked();
  /// Sends a `wake` RPC to each host. Called with lock_ NOT held; failures
  /// are ignored, since the next periodic beat delivers the same state.
  void sendWakes(const std::set<std::string>& hosts);
  void assignTasksLocked(const std::string& tracker_host,
                         uint32_t free_map_slots, uint32_t free_reduce_slots,
                         std::vector<TaskAssignment>& out);
  void expireTrackersLocked();
  void timeoutTasksLocked();
  JobStatus statusLocked(const JobInProgress& job) const;
  /// Per-task entries (map and reduce records, map-completion events) that
  /// `jobs_` holds; the `tasks.retained` gauge.
  size_t retainedTaskEntriesLocked() const;

  Config conf_;
  std::shared_ptr<net::Network> network_;
  std::shared_ptr<JobRegistry> registry_;
  std::string host_;
  std::string namenode_host_;

  // Claimed at construction (registry child "jobtracker"); the cached
  // Counter handles are lock-free, safe to bump under lock_.
  MetricsRegistry* metrics_ = nullptr;
  TraceCollector* tracer_ = nullptr;
  Counter* jobs_submitted_ = nullptr;
  Counter* jobs_succeeded_ = nullptr;
  Counter* jobs_failed_ = nullptr;
  Counter* attempts_failed_ = nullptr;

  mutable std::mutex lock_;
  std::condition_variable job_done_;
  /// Every job ever submitted (finished ones hold no per-task state).
  std::map<JobId, JobInProgress> jobs_;
  /// Ids of the jobs still running, ascending: the scheduling, expiry and
  /// timeout passes walk only these.
  std::set<JobId> running_jobs_;
  std::map<std::string, TrackerInfo> trackers_;
  /// Trackers owed a `wake`, queued by *Locked() helpers. Every entry
  /// point that can queue one (submit, trackerHeartbeat, runMonitorOnce)
  /// takes the set before releasing lock_ and sends after, so it is empty
  /// whenever lock_ is free and no RPC is ever sent under the lock.
  std::set<std::string> pending_wakes_;
  JobId next_job_id_ = 1;
  bool started_ = false;

  std::jthread monitor_;
};

}  // namespace mh::mr
