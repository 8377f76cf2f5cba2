#include "os/scheduler.h"

#include "os/kernel.h"
#include "sim/log.h"
#include "sim/trace.h"

namespace gp::os {

Scheduler::Scheduler(Kernel &kernel) : kernel_(kernel) {}

void
Scheduler::submit(Job job)
{
    queue_.push_back(std::move(job));
    stats_.counter("jobs_submitted")++;
}

size_t
Scheduler::pending() const
{
    return queue_.size() + running_.size();
}

void
Scheduler::dispatch()
{
    while (!queue_.empty()) {
        Job &job = queue_.front();
        isa::Thread *t = kernel_.spawn(job.entry, job.regs);
        if (!t)
            return; // no free slot; try again after progress
        running_.emplace_back(t, job.id);
        GP_TRACE(Sched, kernel_.machine().cycle(),
                 uint32_t(job.id), "dispatch", "job=%llu thread=%u",
                 static_cast<unsigned long long>(job.id), t->id());
        queue_.pop_front();
        stats_.counter("jobs_dispatched")++;
    }
}

void
Scheduler::harvest()
{
    for (auto it = running_.begin(); it != running_.end();) {
        isa::Thread *t = it->first;
        // Ready and Pending (parked on a cross-shard split
        // transaction under the sharded mesh engine) threads are
        // both live: only Halted/Faulted jobs are harvested, so a
        // job blocked on remote memory is never reaped early.
        if (t->state() == isa::ThreadState::Halted ||
            t->state() == isa::ThreadState::Faulted) {
            JobResult result;
            result.id = it->second;
            result.faulted = t->state() == isa::ThreadState::Faulted;
            result.fault = t->faultRecord().fault;
            result.instructions = t->instsRetired();
            results_.push_back(result);
            GP_TRACE(Sched, kernel_.machine().cycle(),
                     uint32_t(result.id),
                     result.faulted ? "job-faulted" : "job-completed",
                     "job=%llu insts=%llu fault=%s",
                     static_cast<unsigned long long>(result.id),
                     static_cast<unsigned long long>(
                         result.instructions),
                     std::string(faultName(result.fault)).c_str());
            stats_.counter(result.faulted ? "jobs_faulted"
                                          : "jobs_completed")++;
            it = running_.erase(it);
        } else {
            ++it;
        }
    }
}

uint64_t
Scheduler::runAll(uint64_t max_cycles)
{
    const uint64_t start = kernel_.machine().cycle();
    dispatch();
    uint64_t spent = 0;
    while (pending() > 0 && spent < max_cycles) {
        // Advance in small batches: enough to amortize the scan,
        // small enough to refill slots promptly. Idle stretches
        // inside a batch are fast-forwarded.
        kernel_.machine().advance(64);
        if (kernel_.machine().allDone() && running_.empty() &&
            !queue_.empty()) {
            // All slots idle but jobs queued: dispatch makes progress.
        } else if (kernel_.machine().allDone() && queue_.empty()) {
            harvest();
            break;
        }
        harvest();
        dispatch();
        spent = kernel_.machine().cycle() - start;
    }
    harvest();
    if (pending() > 0)
        sim::warn("scheduler: cycle budget exhausted with %zu jobs "
                  "pending",
                  pending());
    return kernel_.machine().cycle() - start;
}

} // namespace gp::os
