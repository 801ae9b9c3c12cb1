#include "core/transaction_manager.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/export.h"
#include "obs/json.h"
#include "obs/prometheus.h"
#include "protocols/registry.h"

namespace nbcp {

Result<std::unique_ptr<CommitSystem>> CommitSystem::Create(
    const SystemConfig& config) {
  auto spec = MakeProtocol(config.protocol);
  if (!spec.ok()) return spec.status();
  return CreateWithSpec(config, std::move(*spec));
}

Result<std::unique_ptr<CommitSystem>> CommitSystem::CreateWithSpec(
    const SystemConfig& config, ProtocolSpec spec) {
  if (config.num_sites < 2) {
    return Status::InvalidArgument("need at least 2 sites");
  }

  const bool threaded = config.backend == SystemConfig::Backend::kThreaded;

  auto system = std::unique_ptr<CommitSystem>(new CommitSystem());
  system->config_ = config;
  // Causal clocks always tick: the transport ticks sends/deliveries and the
  // clock ticks timers. The Lamport scalar is always kept (the threaded
  // schedule log and trace-buffer merge sort on it); the vector part only
  // when something reads it: a trace recorder, whose every event carries a
  // sample, or the threaded schedule log.
  const bool vectors = config.trace || config.observe || config.blocking ||
                       config.record_schedule;
  system->clocks_ =
      std::make_unique<CausalClockDomain>(config.num_sites, vectors);
  if (threaded) {
    ThreadedRuntime::Options rt;
    rt.seed = config.seed;
    rt.inbox_capacity = config.inbox_capacity;
    rt.record_schedule = config.record_schedule;
    rt.quiesce_timeout_ms = config.quiesce_timeout_ms;
    system->runtime_ = std::make_unique<ThreadedRuntime>(rt);
    system->clock_ = &system->runtime_->clock();
    system->transport_ = &system->runtime_->transport();
  } else {
    system->sim_ = std::make_unique<Simulator>(config.seed);
    system->network_ =
        std::make_unique<Network>(system->sim_.get(), config.delay);
    system->clock_ = system->sim_.get();
    system->transport_ = system->network_.get();
  }
  system->clock_->set_clocks(system->clocks_.get());
  system->transport_->set_clocks(system->clocks_.get());
  system->detector_ = std::make_unique<FailureDetector>(
      system->clock_, system->transport_, config.detection_delay);
  system->spec_ = std::make_unique<ProtocolSpec>(std::move(spec));

  Status valid = system->spec_->Validate();
  if (!valid.ok()) return valid;

  // Concurrency analysis backing the termination decision rule. Same-role
  // sites are symmetric, so a small analyzed population suffices for any n.
  size_t analysis_n = config.analysis_sites != 0
                          ? config.analysis_sites
                          : std::min<size_t>(config.num_sites, 3);
  auto graph = ReachableStateGraph::Build(*system->spec_, analysis_n);
  if (!graph.ok()) return graph.status();
  if (!graph->complete()) {
    return Status::Internal("analysis state graph truncated");
  }
  system->graph_ =
      std::make_unique<ReachableStateGraph>(std::move(*graph));
  system->analysis_ = std::make_unique<ConcurrencyAnalysis>(
      ConcurrencyAnalysis::Compute(*system->graph_));

  // Maps a live site to the same-role representative inside the analyzed
  // population (shared with the runtime observer and offline replay).
  auto site_map = MakeAnalysisSiteMap(system->spec_->paradigm(),
                                      config.num_sites, analysis_n);

  system->spans_.set_metrics(&system->registry_);
  system->transport_->set_metrics(&system->registry_);

  for (SiteId site = 1; site <= config.num_sites; ++site) {
    system->participants_.push_back(std::make_unique<Participant>(
        site, system->spec_.get(), config.num_sites, system->clock_,
        system->transport_, system->detector_.get(),
        system->analysis_.get(), site_map, config.participant));
    system->participants_.back()->set_obs(&system->registry_,
                                          &system->spans_);
    Status attached = system->participants_.back()->Attach();
    if (!attached.ok()) return attached;
  }

  if (config.trace || config.observe || config.blocking) {
    system->trace_ = std::make_unique<TraceRecorder>(config.trace_capacity);
    TraceRecorder* recorder = system->trace_.get();
    recorder->set_clocks(system->clocks_.get());
    // With observe-only (no trace), the recorder is a pure event bus: it
    // stores nothing and just feeds the observer sink.
    recorder->set_store(config.trace);
    // The threaded workers record into per-site buffers, merged in causal
    // order and fed to the sink at each quiescence point.
    if (threaded) recorder->BufferPerSite(config.num_sites);
    Clock* clock = system->clock_;
    for (auto& participant : system->participants_) {
      participant->set_trace(recorder);
    }
    system->transport_->set_observer(
        [recorder, clock](const Message& m, char phase) {
          switch (phase) {
            case 's':
              recorder->Record(clock->now(), m.from, m.txn,
                               TraceEventType::kMessageSent,
                               m.type + "->" + std::to_string(m.to), m.seq);
              break;
            case 'd':
              recorder->Record(clock->now(), m.to, m.txn,
                               TraceEventType::kMessageDelivered,
                               m.type + "<-" + std::to_string(m.from),
                               m.seq);
              break;
            default:
              recorder->Record(clock->now(), m.to, m.txn,
                               TraceEventType::kMessageDropped,
                               m.type + "<-" + std::to_string(m.from),
                               m.seq);
          }
        });
    // Link-topology changes matter to the observer (concurrency-set checks
    // are only sound failure-free) and to trace consumers.
    system->transport_->set_link_observer(
        [recorder, clock](SiteId a, SiteId b, bool cut) {
          recorder->Record(clock->now(), kNoSite, kNoTransaction,
                           cut ? TraceEventType::kLinkCut
                               : TraceEventType::kLinkRestored,
                           std::to_string(a) + "-" + std::to_string(b));
        });
  }

  if (config.observe) {
    ObserverConfig obs_config;
    obs_config.policy = config.observe_policy;
    obs_config.timeline = config.observe_timeline && config.trace;
    system->observer_ = std::make_unique<GlobalStateObserver>(
        system->spec_.get(), config.num_sites, system->analysis_.get(),
        site_map, obs_config);
    system->observer_->set_trace(system->trace_.get());
    system->observer_->set_metrics(&system->registry_);
  }

  if (config.blocking) {
    system->blocking_ = std::make_unique<BlockingMonitor>(
        system->spec_.get(), config.num_sites);
    system->blocking_->set_observer(system->observer_.get());
    system->blocking_->set_metrics(&system->registry_);
  }

  if (system->observer_ != nullptr || system->blocking_ != nullptr) {
    // Shared event bus: the observer consumes each event first so the
    // monitor's cross-checks see up-to-date global state. On the threaded
    // backend the sink runs on the driver thread, at AwaitQuiescence.
    system->trace_->set_sink(
        [obs = system->observer_.get(),
         blocking = system->blocking_.get()](const TraceEvent& e) {
          if (obs != nullptr) obs->OnEvent(e);
          if (blocking != nullptr) blocking->OnEvent(e);
        });
  }

  // Log records carry time context while this system is alive.
  system->log_time_token_ = Logger::Get().SetTimeSource(
      [clock = system->clock_]() { return clock->now(); });

  system->injector_ = std::make_unique<FailureInjector>(
      system->clock_, system->transport_, system->detector_.get(),
      [raw = system.get()](SiteId site) -> Participant* {
        if (site == kNoSite || site > raw->config_.num_sites) return nullptr;
        return raw->participants_[site - 1].get();
      });
  system->injector_->set_metrics(&system->registry_);

  return system;
}

CommitSystem::~CommitSystem() {
  // Stop the threaded runtime (timer thread + site workers) before tearing
  // down anything they might touch — including the logger's time source,
  // which Logger::Write reads unguarded.
  if (runtime_ != nullptr) runtime_->Shutdown();
  Logger::Get().ClearTimeSource(log_time_token_);
}

TransactionId CommitSystem::Begin() { return next_txn_++; }

void CommitSystem::SetVote(TransactionId txn, SiteId site, bool vote) {
  // Per-site state: run in the site's execution context (inline on the
  // simulator, the site's worker thread on the threaded backend).
  transport_->PostSync(site,
                       [this, txn, site, vote]() {
                         participant(site).SetVote(txn, vote);
                       });
}

Status CommitSystem::SubmitOps(TransactionId txn,
                               const std::vector<KvOp>& ops) {
  std::map<SiteId, std::vector<KvOp>> by_site;
  for (const KvOp& op : ops) {
    if (op.site == kNoSite || op.site > config_.num_sites) {
      return Status::InvalidArgument("op addressed to unknown site");
    }
    by_site[op.site].push_back(op);
  }
  Status overall = Status::OK();
  for (const auto& [site, site_ops] : by_site) {
    Status s = Status::OK();
    transport_->PostSync(site, [this, txn, site = site, &site_ops, &s]() {
      s = participant(site).SubmitLocalOps(txn, site_ops);
    });
    if (!s.ok()) overall = s;  // The site will vote no; report it.
  }
  return overall;
}

Status CommitSystem::Launch(TransactionId txn) {
  LaunchInfo info;
  info.start_time = clock_->now();
  info.messages_before = transport_->StatsSnapshot().messages_sent;
  launches_[txn] = info;

  // Starting the protocol mutates per-site state, so it must happen in the
  // site's own execution context: PostSync is inline on the simulator and
  // a blocking hop to the site's worker on the threaded backend. The
  // request arrival is a local event in the causal order.
  auto start_at = [this, txn](SiteId site) {
    Status s = Status::OK();
    transport_->PostSync(site, [this, txn, site, &s]() {
      if (runtime_ != nullptr && runtime_->record_schedule()) {
        runtime_->RecordStart(site, clocks_->OnLocal(site));
      } else {
        clocks_->Tick(site);
      }
      s = participant(site).StartProtocol(txn);
    });
    return s;
  };

  if (spec_->paradigm() != Paradigm::kDecentralized) {
    // Central-site and linear: the client hands the request to site 1.
    return start_at(1);
  }
  Status overall = Status::OK();
  for (SiteId site = 1; site <= config_.num_sites; ++site) {
    if (!transport_->IsSiteUp(site)) continue;
    Status s = start_at(site);
    if (!s.ok()) overall = s;
  }
  return overall;
}

TxnResult CommitSystem::Summarize(TransactionId txn) const {
  TxnResult result;
  result.txn = txn;

  bool any_commit = false;
  bool any_abort = false;
  SimTime last_decision = 0;
  for (SiteId site = 1; site <= config_.num_sites; ++site) {
    const Participant& p = *participants_[site - 1];
    Outcome outcome = p.OutcomeOf(txn);
    result.site_outcomes[site] = outcome;
    if (outcome == Outcome::kCommitted) any_commit = true;
    if (outcome == Outcome::kAborted) any_abort = true;
    if (outcome != Outcome::kUndecided) {
      ++result.decided_sites;
      auto when = p.DecisionTime(txn);
      if (when.has_value()) last_decision = std::max(last_decision, *when);
    } else if (transport_->IsSiteUp(site) && p.KnowsTransaction(txn)) {
      // Operational, aware of the transaction, yet unable to decide:
      // blocked. (A site that crashed before the transaction ever reached
      // it has no local state to resolve and is not blocked.)
      ++result.blocked_sites;
    }
    if (p.UsedTermination(txn)) result.used_termination = true;
    auto term_start = p.TerminationStartTime(txn);
    if (term_start.has_value()) {
      result.termination_start_time =
          result.termination_start_time == 0
              ? *term_start
              : std::min(result.termination_start_time, *term_start);
    }
  }

  result.consistent = !(any_commit && any_abort);
  result.blocked = result.blocked_sites > 0;
  if (any_commit) {
    result.outcome = Outcome::kCommitted;
  } else if (any_abort) {
    result.outcome = Outcome::kAborted;
  }

  auto launch = launches_.find(txn);
  if (launch != launches_.end()) {
    result.start_time = launch->second.start_time;
    result.messages = transport_->StatsSnapshot().messages_sent -
                      launch->second.messages_before;
  }
  result.end_time = std::max(last_decision, result.start_time);
  return result;
}

TxnResult CommitSystem::AwaitQuiescence(TransactionId txn) {
  if (runtime_ != nullptr) {
    if (!runtime_->WaitQuiescent()) {
      NBCP_LOG(kWarn) << "threaded runtime did not quiesce within "
                      << config_.quiesce_timeout_ms << "ms";
    }
    // Site threads are idle now: merge their trace buffers in causal order
    // and feed the observer and blocking monitor on this (the driver)
    // thread.
    if (trace_ != nullptr) trace_->FlushBuffers();
  } else {
    size_t executed = sim_->Run(config_.max_events_per_run);
    if (executed >= config_.max_events_per_run) {
      NBCP_LOG(kWarn) << "event cap reached while awaiting quiescence";
    }
  }
  TxnResult result = Summarize(txn);
  metrics_.Record(result);

  registry_.counter("txn/completed").Inc();
  if (result.outcome == Outcome::kCommitted) {
    registry_.counter("txn/committed").Inc();
  } else if (result.outcome == Outcome::kAborted) {
    registry_.counter("txn/aborted").Inc();
  }
  if (result.blocked) registry_.counter("txn/blocked").Inc();
  if (result.used_termination) registry_.counter("txn/terminations").Inc();
  if (!result.consistent) registry_.counter("txn/inconsistent").Inc();
  registry_.histogram("txn/latency_us").Record(result.latency());
  registry_.histogram("txn/messages").Record(result.messages);
  // Windowed view of the same latencies, bucketed by completion time, so
  // "p95 over the last stretch of virtual time" is answerable.
  registry_.series("txn/latency_us").Record(clock_->now(), result.latency());
  if (blocking_ != nullptr) blocking_->Finalize(clock_->now());
  registry_.histogram("txn/commit_path_latency_us")
      .Record(result.commit_path_latency());
  if (result.used_termination) {
    registry_.histogram("txn/termination_latency_us")
        .Record(result.termination_latency());
  }
  return result;
}

TxnResult CommitSystem::RunToCompletion(TransactionId txn) {
  Status launched = Launch(txn);
  if (!launched.ok()) {
    NBCP_LOG(kWarn) << "launch failed: " << launched.ToString();
  }
  return AwaitQuiescence(txn);
}

std::string CommitSystem::MetricsSnapshotJson(int indent) const {
  Json root = Json::Object();
  root["protocol"] = Json(spec_->name());
  root["num_sites"] = Json(config_.num_sites);
  root["seed"] = Json(config_.seed);
  root["virtual_time_us"] = Json(clock_->now());
  root["backend"] = Json(sim_ != nullptr ? "sim" : "threaded");

  if (sim_ != nullptr) {
    Json sim = Json::Object();
    sim["events_executed"] = Json(sim_->stats().events_executed);
    sim["events_scheduled"] = Json(sim_->stats().events_scheduled);
    sim["max_queue_depth"] = Json(sim_->stats().max_queue_depth);
    root["sim"] = sim;
  }

  const NetworkStats net = transport_->StatsSnapshot();
  Json network = Json::Object();
  network["messages_sent"] = Json(net.messages_sent);
  network["messages_delivered"] = Json(net.messages_delivered);
  network["messages_dropped"] = Json(net.messages_dropped);
  network["bytes_sent"] = Json(net.bytes_sent);
  root["network"] = network;

  root["metrics"] = registry_.ToJson();
  return root.Dump(indent);
}

std::string CommitSystem::MetricsPrometheusText(SimTime window) const {
  std::map<std::string, std::string> labels = {
      {"protocol", spec_->name()},
      {"sites", std::to_string(config_.num_sites)},
      {"seed", std::to_string(config_.seed)},
  };
  return ExportPrometheusText(registry_, labels, clock_->now(), window);
}

std::string CommitSystem::TraceJsonl() const {
  if (trace_ == nullptr || !trace_->store()) return "";
  TraceMeta meta{spec_->name(), config_.num_sites, trace_->dropped()};
  return ExportTraceJsonLines(*trace_, &spans_, meta);
}

std::string CommitSystem::TraceChromeJson() const {
  if (trace_ == nullptr || !trace_->store()) return "";
  TraceMeta meta{spec_->name(), config_.num_sites, trace_->dropped()};
  std::vector<TraceEvent> events(trace_->events().begin(),
                                 trace_->events().end());
  return ExportChromeTrace(events, spans_.spans(), meta);
}

Status CommitSystem::ExportTraceJsonl(const std::string& path) const {
  if (trace_ == nullptr || !trace_->store()) {
    return Status::FailedPrecondition("tracing is off (SystemConfig::trace)");
  }
  return WriteFile(path, TraceJsonl());
}

Status CommitSystem::ExportTraceChrome(const std::string& path) const {
  if (trace_ == nullptr || !trace_->store()) {
    return Status::FailedPrecondition("tracing is off (SystemConfig::trace)");
  }
  return WriteFile(path, TraceChromeJson());
}

}  // namespace nbcp
