//===- ServeRepeat.cpp - The serve-repeat workload ---------------*- C++ -*-===//
//
// Part of the EXTRA reproduction of Morgan & Rowe, SIGPLAN '82.
//
//===----------------------------------------------------------------------===//
//
// The discovery service in one process: a server::Service on a fresh
// memo store behind its own Unix-socket transport (server::serveLoop),
// driven closed-loop by one server::Client connection, with one worker.
//
// The traffic is the repository's recorded client pattern, the
// `extra-cli client suite` run of the server smoke test: submit every
// pairing once and wait for its answer; on a fresh store those submits
// are cold searches plus store appends, and every later suite is
// answered from the memo store. Here the pairings are the 8 the searcher
// discovers plus each of their operators paired with itself (verified at
// depth 0, so a cold answer costs little search). One pass runs one
// suite; the first pass on a fresh store is the cold suite, every later
// one a warm suite. The seed draws the submit order. Every thread of the
// process shares one CPU (pinToThisCpu).
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "server/Client.h"
#include "server/Service.h"
#include "server/Socket.h"

#include <sched.h>

#include <algorithm>
#include <filesystem>
#include <thread>

using namespace extra;

namespace perfbench {
namespace {

struct Request {
  std::string Line;
  std::string Pairing;
};

/// The suite's pairings: every discoverable case, then each distinct
/// operator of those cases paired with itself ("op|op").
std::vector<std::string> suitePairings() {
  std::vector<std::string> Out(std::begin(kDiscoverable),
                               std::end(kDiscoverable));
  std::vector<std::string> Ops;
  for (const char *Id : kDiscoverable) {
    std::string Op = std::string(Id).substr(std::string(Id).find('/') + 1);
    if (std::find(Ops.begin(), Ops.end(), Op) == Ops.end())
      Ops.push_back(Op);
  }
  for (const std::string &Op : Ops)
    Out.push_back(Op + "|" + Op);
  return Out;
}

/// The suite: a submit (waiting for the answer) of every pairing, in an
/// order drawn from the seed.
std::vector<Request> drawSuite(uint64_t Seed) {
  std::mt19937_64 Rng = seededRng(Seed, "serve-repeat/order");
  std::vector<std::string> Order = suitePairings();
  std::shuffle(Order.begin(), Order.end(), Rng);
  std::vector<Request> Out;
  for (const std::string &Pairing : Order) {
    Request Q;
    Q.Pairing = Pairing;
    size_t Bar = Pairing.find('|');
    std::string Addr =
        Bar == std::string::npos
            ? "\"case\":\"" + Pairing + "\""
            : "\"operator\":\"" + Pairing.substr(0, Bar) +
                  "\",\"instruction\":\"" + Pairing.substr(Bar + 1) + "\"";
    Q.Line = "{\"cmd\":\"submit\"," + Addr + ",\"wait\":true}";
    Out.push_back(std::move(Q));
  }
  return Out;
}

/// Restricts this thread, and so every thread it starts, to the CPU it
/// runs on. A warm request is a few system calls and two thread wake-ups
/// (client to handler and back); across CPUs each wake-up is an
/// inter-processor interrupt, whose cost on a shared virtual machine
/// swung warm latency by a quarter from run to run. On one CPU the
/// request path costs what its code costs, which is what a change to
/// src/server can move.
void pinToThisCpu() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  int Cpu = sched_getcpu();
  CPU_SET(Cpu < 0 ? 0 : Cpu, &Set);
  sched_setaffinity(0, sizeof(Set), &Set);
}

class ServeRepeat : public Workload {
public:
  /// Constructed before the first calibration and set-up, so both run
  /// on the pinned CPU too.
  ServeRepeat() { pinToThisCpu(); }
  ~ServeRepeat() override { stop(); }

  void setup(RunContext &R) override {
    stop();
    (void)baseSetup(R);
    start(R);
  }

  /// The traced passes start from a fresh store too, so they see the
  /// cold searches.
  void beginTracedPhase(RunContext &R) override {
    stop();
    start(R);
  }

  /// Runs the suite once. Returns the digest of the answers (outcome and
  /// script lengths, never timing or cache state). After the first suite
  /// on a store, every answer must come from the cache.
  PassResult pass(RunContext &R) override {
    PassResult Out;
    if (!R.T.expect(Client != nullptr, "no client connection"))
      return Out;
    obs::TraceSink &Sink = R.Trace.sink();
    uint64_t H = digest("serve-repeat");
    for (const Request &Q : Suite) {
      auto T0 = Clock::now();
      obs::ScopedSpan S(Sink, "server.request", 0,
                        Sink.enabled() ? obs::Payload().add("case", Q.Pairing)
                                       : obs::Payload());
      Expected<server::Response> Resp = Client->request(Q.Line);
      double Ms = msSince(T0);
      Problems Probs;
      if (!Resp) {
        Probs.fail("transport: " + Resp.fault().str());
        R.T.op(Q.Pairing, Probs);
        continue;
      }
      const server::Response &A = *Resp;
      bool Cached = A.get("cached") == "true";
      bool Ok = A.ok() && !A.overloaded() && A.get("outcome") == "verified" &&
                (Cached || !WarmSuite);
      if (!Ok)
        Probs.fail("bad response: " + A.Raw);
      R.T.op(Q.Pairing, Probs);
      if (!Ok)
        continue;
      Out.OpMs.push_back(Ms);
      if (R.Trace.enabled()) {
        R.Layers.add(Cached ? "server.warm_ms" : "server.cold_ms", Ms);
        R.Layers.add(Cached ? "server.warm_n" : "server.cold_n", 1);
      }
      H = digest(Q.Pairing + "=" + A.get("outcome") + "/" +
                     A.get("op_steps") + "+" + A.get("inst_steps"),
                 H);
    }
    WarmSuite = true;
    Out.Digest = H;
    return Out;
  }

  /// A warm request is short, code-heavy user-space work (96% of the
  /// process's CPU time) between two thread wake-ups, and slows more
  /// steeply than the calibration kernel when the host is busy: over
  /// three sets of ten 20-25 s runs, log raw time_to_verified_s against
  /// log C_run had slopes 1.9, 1.9 and 1.2. With k = 1 the three sets
  /// spread up to 0.18; with k = 1.75, which minimizes the largest spread
  /// of the three, up to 0.084.
  double hostElasticity() const override { return 1.75; }

  void layers(RunContext &R, std::map<std::string, double> &Out) override {
    double Warm = R.Layers.get("server.warm_n");
    double Cold = R.Layers.get("server.cold_n");
    Out["server.warm_us"] =
        Warm > 0 ? R.Layers.get("server.warm_ms") * 1000.0 / Warm : 0.0;
    Out["server.cold_ms"] = Cold > 0 ? R.Layers.get("server.cold_ms") / Cold : 0;
    if (Service) {
      double Hit = double(counter(Service->metrics(), "server.cache.hit"));
      double Miss = double(counter(Service->metrics(), "server.cache.miss"));
      Out["server.cache_hit_ratio"] = Hit + Miss > 0 ? Hit / (Hit + Miss) : 0;
    }
    std::error_code EC;
    auto Bytes = std::filesystem::file_size(StorePath, EC);
    Out["server.store_bytes"] = EC ? 0.0 : double(Bytes);
  }

  void teardown(RunContext &R) override {
    (void)R;
    stop();
  }

private:
  /// Opens a fresh store, starts the service and its socket loop, and
  /// connects the client.
  void start(RunContext &R) {
    std::string Dir = R.Cfg.WorkDir + "/serve";
    std::filesystem::remove_all(Dir);
    std::filesystem::create_directories(Dir);
    StorePath = Dir + "/store.jsonl";
    SocketPath = Dir + "/service.sock";

    server::ServiceOptions Opts;
    Opts.StorePath = StorePath;
    Opts.Workers = Workers;
    Opts.Watchdog = false;
    Opts.DegradedRetry = false;
    Opts.Limits.MaxNodes = 2000;
    Opts.Limits.TimeBudgetMs = 60000; // Safety net only.
    auto Svc = server::Service::create(Opts);
    if (!R.T.expect(static_cast<bool>(Svc),
                    "service start: " + (Svc ? "" : Svc.fault().str())))
      return;
    Service = std::move(*Svc);
    auto Fd = server::listenUnix(SocketPath);
    if (!R.T.expect(static_cast<bool>(Fd),
                    "listen: " + (Fd ? "" : Fd.fault().str())))
      return;
    server::ServeOptions SO;
    SO.MaxConnections = 1;
    Loop = std::thread([this, L = server::Listener{*Fd, SocketPath}, SO] {
      server::serveLoop({L}, *Service, SO);
    });

    Suite = drawSuite(R.Cfg.Seed);
    WarmSuite = false;
    server::ClientOptions CO;
    CO.MaxAttempts = 1; // A retry would hide a failure.
    auto Cl = server::Client::connect(SocketPath, CO);
    if (!R.T.expect(static_cast<bool>(Cl),
                    "connect: " + (Cl ? "" : Cl.fault().str())))
      return;
    Client = std::move(*Cl);
  }

  void stop() {
    if (Loop.joinable()) {
      // The loop exits once a shutdown request is handled; without a
      // client (a failed set-up) the service is told directly.
      if (Client)
        (void)Client->request("{\"cmd\":\"shutdown\"}");
      else if (Service)
        (void)Service->handle("{\"cmd\":\"shutdown\"}");
      Client.reset();
      Loop.join();
    }
    Client.reset();
    if (Service)
      Service->stop();
    Service.reset();
  }

  /// One worker and one client connection. A warm answer is served on
  /// the connection's handler thread and never reaches a worker, so the
  /// workload measures the request path, not server parallelism. A second
  /// client made warm latency swing 3x between runs on a shared virtual
  /// machine.
  static constexpr unsigned Workers = 1;
  std::string StorePath;
  std::string SocketPath;
  std::unique_ptr<server::Service> Service;
  std::thread Loop;
  std::unique_ptr<server::Client> Client;
  std::vector<Request> Suite;
  /// Set once the first suite on the current store has run.
  bool WarmSuite = false;
};

} // namespace

std::unique_ptr<Workload> makeServeRepeat() {
  return std::make_unique<ServeRepeat>();
}

} // namespace perfbench
