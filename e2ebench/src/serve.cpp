#include "serve.h"

#include <future>
#include <thread>

#include "spans.h"

namespace e2e {

namespace rt = bts::runtime;

ServeWindow
serve_window(ServingEnv& env, u64 seed, double seconds)
{
    const std::vector<Arrival> schedule =
        poisson_schedule(seed, kServeRatePerS, seconds, kServeMix);
    SpanRecorder& rec = SpanRecorder::instance();
    const int window_span = rec.enabled() ? rec.open("loadgen.window") : -1;
    const double epoch_off = seconds_since(rec.epoch());

    ServeWindow w;
    std::vector<std::future<rt::JobResult>> futures;
    const Clock::time_point t0 = Clock::now();
    const auto at = [&](double s) {
        return t0 + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(s));
    };
    for (const Arrival& a : schedule) {
        std::this_thread::sleep_until(at(a.due_s));
        w.late_s.push_back(seconds_since(t0) - a.due_s);
        JobRecord job;
        job.kind = a.kind;
        job.input_set =
            static_cast<int>(a.input_seed % ServingEnv::kInputSets);
        job.due_s = a.due_s;
        const int k = static_cast<int>(a.kind);
        rt::JobRequest req;
        req.graph = &env.graph(a.kind);
        req.client = job_kind_name(a.kind);
        req.inputs = env.inputs[k][static_cast<std::size_t>(job.input_set)]
                         .binding;
        futures.push_back(env.server->submit(std::move(req)));
        job.admitted_s = seconds_since(t0);
        w.jobs.push_back(std::move(job));
    }
    std::this_thread::sleep_until(at(seconds));
    const rt::ServerStats at_close = env.server->stats();
    w.backlog_at_close = at_close.submitted - at_close.completed -
                         at_close.failed;

    for (std::size_t i = 0; i < futures.size(); ++i) {
        JobRecord& job = w.jobs[i];
        try {
            rt::JobResult r = futures[i].get();
            job.queue_s = r.queue_s;
            job.exec_s = r.exec_s;
            job.outputs = std::move(r.outputs);
        } catch (const std::exception&) {
            job.failed = true;
            job.exec_s = seconds_since(t0) - job.admitted_s;
        }
        w.makespan_s = std::max(w.makespan_s, job.admitted_s + job.queue_s +
                                                  job.exec_s);
    }
    env.server->drain();

    if (window_span >= 0) {
        rec.close(window_span);
        for (const JobRecord& job : w.jobs) {
            const double due = epoch_off + job.due_s;
            const double adm = epoch_off + job.admitted_s;
            const int track = 10 + static_cast<int>(job.kind);
            const int id = rec.add(
                std::string("runtime/server.job.") + job_kind_name(job.kind),
                due, due + job.latency_s(), track, window_span);
            rec.add("runtime/server.queue", adm, adm + job.queue_s, track,
                    id);
            rec.add("runtime/executor.run", adm + job.queue_s,
                    adm + job.queue_s + job.exec_s, track, id);
        }
    }
    return w;
}

void
check_jobs(ServingEnv& env, ServeWindow& w, OutputCheck& check)
{
    std::map<std::pair<int, int>, std::vector<SlotVec>> refs;
    for (JobRecord& job : w.jobs) {
        const std::string what = std::string("job ") +
                                 job_kind_name(job.kind) + " input_set=" +
                                 std::to_string(job.input_set);
        if (job.failed) {
            check.record_error(what);
            continue;
        }
        const int k = static_cast<int>(job.kind);
        auto it = refs.find({k, job.input_set});
        if (it == refs.end()) {
            const JobInput& in =
                env.inputs[k][static_cast<std::size_t>(job.input_set)];
            it = refs.emplace(std::make_pair(k, job.input_set),
                              rt::apps::reference_run(env.graph(job.kind),
                                                      in.slots))
                     .first;
        }
        std::vector<SlotVec> he;
        for (const Ciphertext& ct : job.outputs) {
            he.push_back(env.be.env.decrypt(ct));
        }
        job.failed =
            !check.check(he, it->second, job_tolerance(job.kind), what);
    }
}

} // namespace e2e
