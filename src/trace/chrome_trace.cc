#include "trace/chrome_trace.hh"

#include <algorithm>
#include <cstdio>
#include <map>
#include <ostream>
#include <utility>
#include <vector>

#include "common/json.hh"
#include "trace/stats_series.hh"

namespace mtrap
{

namespace
{

/** One rendered trace-event JSON object with its track sort key. */
struct Emitted
{
    std::uint64_t pid = 0;
    std::uint64_t tid = 0;
    Cycle ts = 0;
    std::string json;
};

std::string
u64(std::uint64_t v)
{
    return std::to_string(v);
}

Emitted
spanEvent(CoreId core, Cycle start, Cycle end, const std::string &name,
          int job, int thread)
{
    Emitted e;
    e.tid = core;
    e.ts = start;
    e.json = "{\"name\":\"" + jsonEscape(name)
             + "\",\"ph\":\"X\",\"pid\":0,\"tid\":" + u64(core)
             + ",\"ts\":" + u64(start)
             + ",\"dur\":" + u64(end > start ? end - start : 0);
    if (job >= 0)
        e.json += ",\"args\":{\"job\":" + std::to_string(job)
                  + ",\"thread\":" + std::to_string(thread) + "}";
    e.json += "}";
    return e;
}

Emitted
instantEvent(const TraceEvent &ev)
{
    Emitted e;
    e.tid = ev.core;
    e.ts = ev.when;
    e.json = std::string("{\"name\":\"") + traceEventKindName(ev.kind)
             + "\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":"
             + u64(ev.core) + ",\"ts\":" + u64(ev.when)
             + ",\"args\":{\"a0\":" + u64(ev.arg0) + ",\"a1\":"
             + u64(ev.arg1) + "}}";
    return e;
}

/** Latest timestamp across every buffer: the close point for spans
 *  still open when the run ended. */
Cycle
traceEndCycle(const Tracer &t)
{
    Cycle end = 0;
    for (const TraceEvent &e : t.schedBuffer().ordered())
        end = std::max(end, e.when);
    for (unsigned c = 0; c < t.cores(); ++c)
        for (const TraceEvent &e : t.coreBuffer(c).ordered())
            end = std::max(end, e.when);
    return end;
}

} // namespace

void
writeChromeTrace(const Tracer &tracer, const StatSeries *series,
                 std::ostream &os)
{
    std::vector<Emitted> events;

    // Scheduler decisions become per-core occupancy spans: each
    // decision opens a slot that runs until the core's next decision
    // (or the end of the trace).
    const Cycle trace_end = traceEndCycle(tracer);
    struct Open
    {
        bool active = false;
        Cycle start = 0;
        std::string name;
        int job = -1, thread = -1;
    };
    std::vector<Open> open(tracer.cores());
    for (const TraceEvent &e : tracer.schedBuffer().ordered()) {
        // Migrations, arrivals and completions are point events, not
        // occupancy decisions: render as instants so they don't break
        // the span state machine below.
        if (e.kind == TraceEventKind::SchedMigrate
            || e.kind == TraceEventKind::SchedArrive
            || e.kind == TraceEventKind::SchedComplete) {
            events.push_back(instantEvent(e));
            continue;
        }
        Open &o = open.at(e.core);
        if (o.active)
            events.push_back(spanEvent(e.core, o.start, e.when, o.name,
                                       o.job, o.thread));
        o.active = true;
        o.start = e.when;
        if (e.kind == TraceEventKind::SchedRun) {
            const int job = static_cast<int>(
                static_cast<std::int64_t>(e.arg0));
            o.job = job;
            o.thread = static_cast<int>(e.arg1);
            o.name = tracer.jobLabel(static_cast<unsigned>(job));
            if (e.arg1)
                o.name += ".t" + std::to_string(e.arg1);
        } else {
            o.job = -1;
            o.thread = -1;
            o.name = e.kind == TraceEventKind::SchedIdle ? "idle"
                                                         : "parked";
        }
    }
    for (unsigned c = 0; c < tracer.cores(); ++c)
        if (open[c].active)
            events.push_back(spanEvent(c, open[c].start, trace_end,
                                       open[c].name, open[c].job,
                                       open[c].thread));

    // Core-local events as thread-scoped instants.
    for (unsigned c = 0; c < tracer.cores(); ++c)
        for (const TraceEvent &e : tracer.coreBuffer(c).ordered())
            events.push_back(instantEvent(e));

    // Interval IPC as a counter track.
    if (series) {
        const auto &rows = series->rows();
        for (std::size_t i = 0; i < rows.size(); ++i) {
            char val[32];
            std::snprintf(val, sizeof val, "%.6f",
                          series->intervalIpc(i));
            Emitted e;
            e.tid = 0;
            e.ts = rows[i].cycle;
            e.json = "{\"name\":\"ipc\",\"ph\":\"C\",\"pid\":0,\"tid\":0"
                     ",\"ts\":" + u64(rows[i].cycle)
                     + ",\"args\":{\"ipc\":" + val + "}}";
            events.push_back(std::move(e));
        }
    }

    // Each track must be timestamp-sorted (the validator's contract);
    // a stable sort keeps same-cycle events in their deterministic
    // production order.
    std::stable_sort(events.begin(), events.end(),
                     [](const Emitted &a, const Emitted &b) {
                         if (a.pid != b.pid)
                             return a.pid < b.pid;
                         if (a.tid != b.tid)
                             return a.tid < b.tid;
                         return a.ts < b.ts;
                     });

    os << "{\"traceEvents\":[\n";
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,"
          "\"args\":{\"name\":\"mtrap\"}}";
    for (unsigned c = 0; c < tracer.cores(); ++c)
        os << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
              "\"tid\":"
           << c << ",\"args\":{\"name\":\"core" << c << "\"}}";
    for (const Emitted &e : events)
        os << ",\n" << e.json;
    os << "\n],\"displayTimeUnit\":\"ns\",\"otherData\":{"
          "\"recorded\":"
       << tracer.recordedCount() << ",\"dropped\":"
       << tracer.droppedCount() << "}}\n";
}

void
writeTraceCsv(const Tracer &tracer, std::ostream &os)
{
    std::vector<TraceEvent> all = tracer.schedBuffer().ordered();
    for (unsigned c = 0; c < tracer.cores(); ++c) {
        const std::vector<TraceEvent> evs =
            tracer.coreBuffer(c).ordered();
        all.insert(all.end(), evs.begin(), evs.end());
    }
    std::stable_sort(all.begin(), all.end(),
                     [](const TraceEvent &a, const TraceEvent &b) {
                         if (a.when != b.when)
                             return a.when < b.when;
                         return a.core < b.core;
                     });

    os << "cycle,core,kind,arg0,arg1\n";
    for (const TraceEvent &e : all)
        os << e.when << "," << e.core << ","
           << traceEventKindName(e.kind) << "," << e.arg0 << ","
           << e.arg1 << "\n";
}

bool
validateChromeTrace(const std::string &text, std::string &err)
{
    JsonValue root;
    if (!parseJson(text, root, err))
        return false;
    if (root.kind != JsonValue::Kind::Object) {
        err = "top level is not an object";
        return false;
    }
    const JsonValue *events = root.field("traceEvents");
    if (!events || events->kind != JsonValue::Kind::Array) {
        err = "missing \"traceEvents\" array";
        return false;
    }

    std::map<std::pair<double, double>, double> lastTs;
    for (std::size_t i = 0; i < events->array.size(); ++i) {
        const JsonValue &e = events->array[i];
        const std::string at = "traceEvents[" + std::to_string(i) + "]";
        if (e.kind != JsonValue::Kind::Object) {
            err = at + " is not an object";
            return false;
        }
        const JsonValue *name = e.field("name");
        if (!name || name->kind != JsonValue::Kind::String) {
            err = at + " has no \"name\" string";
            return false;
        }
        const JsonValue *ph = e.field("ph");
        if (!ph || ph->kind != JsonValue::Kind::String
            || ph->string.empty()) {
            err = at + " has no \"ph\" string";
            return false;
        }
        if (ph->string == "M")
            continue; // metadata carries no timestamp

        const JsonValue *pid = e.field("pid");
        const JsonValue *tid = e.field("tid");
        const JsonValue *ts = e.field("ts");
        if (!pid || pid->kind != JsonValue::Kind::Number
            || !tid || tid->kind != JsonValue::Kind::Number
            || !ts || ts->kind != JsonValue::Kind::Number) {
            err = at + " (" + name->string
                  + ") lacks numeric pid/tid/ts";
            return false;
        }
        if (ph->string == "X") {
            const JsonValue *dur = e.field("dur");
            if (!dur || dur->kind != JsonValue::Kind::Number
                || dur->number < 0) {
                err = at + " (" + name->string
                      + ") \"X\" event lacks a non-negative dur";
                return false;
            }
        }
        const auto track = std::make_pair(pid->number, tid->number);
        const auto it = lastTs.find(track);
        if (it != lastTs.end() && ts->number < it->second) {
            err = at + " (" + name->string
                  + ") goes backwards on its track: ts "
                  + std::to_string(ts->number) + " after "
                  + std::to_string(it->second);
            return false;
        }
        lastTs[track] = ts->number;
    }
    return true;
}

} // namespace mtrap
