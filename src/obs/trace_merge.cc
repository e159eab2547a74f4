#include "obs/trace_merge.hh"

#include <algorithm>
#include <cinttypes>
#include <map>
#include <set>

#include "common/json.hh"
#include "common/log.hh"
#include "obs/trace_reader.hh"

namespace chameleon
{
namespace
{

bool
hexField(const JsonValue &args, const char *key, std::uint64_t &out)
{
    const JsonValue *v = args.get(key);
    if (!v || v->type != JsonValue::Type::String)
        return false;
    return parseHexU64(v->string, out);
}

SpanKind
kindFromName(const std::string &name, bool &ok)
{
    ok = true;
    for (std::size_t k = 0; k < spanKindCount; ++k) {
        const SpanKind kind = static_cast<SpanKind>(k);
        if (name == spanKindName(kind))
            return kind;
    }
    ok = false;
    return SpanKind::CtlRequest;
}

} // namespace

bool
loadSpanJson(const std::string &text, SpanFile &out,
             std::string &error)
{
    std::string perr;
    const JsonValue doc = parseJson(text, perr);
    if (doc.type == JsonValue::Type::Null && !perr.empty()) {
        error = "json: " + perr;
        return false;
    }
    if (!doc.isObject()) {
        error = "span file: top level must be an object";
        return false;
    }
    const JsonValue *events = doc.get("traceEvents");
    if (!events || !events->isArray()) {
        error = "span file: missing traceEvents array";
        return false;
    }

    out.process.clear();
    out.serverId = 0;
    out.offsets.clear();
    out.recorded = out.dropped = 0;
    out.spans.clear();

    for (const JsonValue &ev : events->array) {
        if (!ev.isObject()) {
            error = "span file: non-object trace event";
            return false;
        }
        const JsonValue *ph = ev.get("ph");
        const JsonValue *name = ev.get("name");
        if (!ph || ph->type != JsonValue::Type::String || !name ||
            name->type != JsonValue::Type::String) {
            error = "span file: event lacks ph/name";
            return false;
        }
        if (ph->string == "M") {
            if (name->string == "process_name") {
                const JsonValue *args = ev.get("args");
                const JsonValue *pn =
                    args ? args->get("name") : nullptr;
                if (pn && pn->type == JsonValue::Type::String)
                    out.process = pn->string;
            }
            continue;
        }
        if (ph->string != "X") {
            error = "span file: unexpected ph '" + ph->string + "'";
            return false;
        }
        const JsonValue *ts = ev.get("ts");
        const JsonValue *dur = ev.get("dur");
        const JsonValue *args = ev.get("args");
        if (!ts || ts->type != JsonValue::Type::Number || !dur ||
            dur->type != JsonValue::Type::Number || !args ||
            !args->isObject()) {
            error = "span file: X event lacks ts/dur/args";
            return false;
        }
        SpanRecord rec;
        std::uint64_t traceId[2] = {0, 0};
        const JsonValue *trace = args->get("trace");
        if (!trace || trace->type != JsonValue::Type::String ||
            trace->string.size() != 32 ||
            !parseHexU64(trace->string.substr(0, 16), traceId[0]) ||
            !parseHexU64(trace->string.substr(16, 16), traceId[1])) {
            error = "span file: bad trace id on '" + name->string +
                    "'";
            return false;
        }
        rec.traceHi = traceId[0];
        rec.traceLo = traceId[1];
        if (!hexField(*args, "span", rec.spanId) ||
            !hexField(*args, "parent", rec.parentId)) {
            error = "span file: bad span/parent id on '" +
                    name->string + "'";
            return false;
        }
        bool kindOk = false;
        rec.kind = kindFromName(name->string, kindOk);
        if (!kindOk) {
            error =
                "span file: unknown span kind '" + name->string + "'";
            return false;
        }
        rec.startUs = static_cast<std::uint64_t>(ts->number);
        rec.endUs =
            rec.startUs + static_cast<std::uint64_t>(dur->number);
        const JsonValue *v = args->get("v");
        if (v && v->type == JsonValue::Type::Number)
            rec.arg0 = static_cast<std::uint64_t>(v->number);
        const JsonValue *err = args->get("err");
        if (err && err->type == JsonValue::Type::Number &&
            err->number != 0.0)
            rec.flags |= kSpanError;
        out.spans.push_back(rec);
    }

    const JsonValue *other = doc.get("otherData");
    if (other && other->isObject()) {
        const JsonValue *proc = other->get("process");
        if (proc && proc->type == JsonValue::Type::String &&
            out.process.empty())
            out.process = proc->string;
        const JsonValue *sid = other->get("server_id");
        if (sid && sid->type == JsonValue::Type::String &&
            !parseHexU64(sid->string, out.serverId)) {
            error = "span file: bad server_id";
            return false;
        }
        const JsonValue *rec = other->get("spans_recorded");
        if (rec && rec->type == JsonValue::Type::Number)
            out.recorded = static_cast<std::uint64_t>(rec->number);
        const JsonValue *drop = other->get("spans_dropped");
        if (drop && drop->type == JsonValue::Type::Number)
            out.dropped = static_cast<std::uint64_t>(drop->number);
        const JsonValue *offs = other->get("clock_offsets");
        if (offs && offs->isObject()) {
            for (const auto &kv : offs->object) {
                std::uint64_t sidKey = 0;
                if (!parseHexU64(kv.first, sidKey)) {
                    error = "span file: bad clock_offsets key '" +
                            kv.first + "'";
                    return false;
                }
                const JsonValue *off = kv.second.get("offset_us");
                if (!off ||
                    off->type != JsonValue::Type::Number) {
                    error = "span file: clock_offsets entry lacks "
                            "offset_us";
                    return false;
                }
                out.offsets[sidKey] =
                    static_cast<std::int64_t>(off->number);
            }
        }
    }
    if (out.process.empty())
        out.process = "unknown";
    return true;
}

bool
loadSpanFile(const std::string &path, SpanFile &out,
             std::string &error)
{
    std::string text;
    if (!readWholeFile(path, text, error))
        return false;
    if (!loadSpanJson(text, out, error)) {
        error = path + ": " + error;
        return false;
    }
    out.path = path;
    return true;
}

MergedTrace
mergeSpans(std::vector<SpanFile> files, std::uint64_t trace_hi,
           std::uint64_t trace_lo)
{
    MergedTrace merged;

    // Clients (no server_id) define the reference clock; pool their
    // per-server offset maps, keeping the first (loader already kept
    // the tightest round trip per file).
    std::map<std::uint64_t, std::int64_t> serverOffsets;
    for (const SpanFile &f : files) {
        if (f.serverId != 0)
            continue;
        for (const auto &kv : f.offsets)
            serverOffsets.emplace(kv.first, kv.second);
    }

    for (SpanFile &f : files) {
        f.appliedOffsetUs = 0;
        if (f.serverId != 0) {
            const auto it = serverOffsets.find(f.serverId);
            // offset = serverMono − clientMono, so subtracting it
            // moves server timestamps onto the client clock.
            if (it != serverOffsets.end())
                f.appliedOffsetUs = -it->second;
        }
        merged.droppedTotal += f.dropped;
    }

    for (std::size_t i = 0; i < files.size(); ++i) {
        for (const SpanRecord &rec : files[i].spans) {
            if ((trace_hi | trace_lo) != 0 &&
                (rec.traceHi != trace_hi || rec.traceLo != trace_lo))
                continue;
            LoadedSpan ls;
            ls.rec = rec;
            const std::int64_t off = files[i].appliedOffsetUs;
            ls.rec.startUs = static_cast<std::uint64_t>(
                static_cast<std::int64_t>(rec.startUs) + off);
            ls.rec.endUs = static_cast<std::uint64_t>(
                static_cast<std::int64_t>(rec.endUs) + off);
            ls.process = files[i].process;
            ls.processIdx = i;
            merged.spans.push_back(std::move(ls));
        }
    }
    std::stable_sort(merged.spans.begin(), merged.spans.end(),
                     [](const LoadedSpan &a, const LoadedSpan &b) {
                         return a.rec.startUs < b.rec.startUs;
                     });
    merged.files = std::move(files);
    return merged;
}

TraceTreeCheck
checkTraceTree(const MergedTrace &merged, std::uint64_t trace_hi,
               std::uint64_t trace_lo)
{
    TraceTreeCheck check;
    std::set<std::uint64_t> ids;
    std::set<std::size_t> procs;
    for (const LoadedSpan &ls : merged.spans) {
        if (ls.rec.traceHi != trace_hi || ls.rec.traceLo != trace_lo)
            continue;
        ids.insert(ls.rec.spanId);
        procs.insert(ls.processIdx);
        ++check.spans;
    }
    for (const LoadedSpan &ls : merged.spans) {
        if (ls.rec.traceHi != trace_hi || ls.rec.traceLo != trace_lo) {
            check.singleTrace = false;
            continue;
        }
        if (ls.rec.parentId == 0)
            ++check.roots;
        else if (!ids.count(ls.rec.parentId))
            ++check.orphans;
    }
    check.processes = procs.size();
    return check;
}

std::vector<std::pair<std::string, std::size_t>>
traceIdsBySpanCount(const MergedTrace &merged)
{
    std::map<std::string, std::size_t> counts;
    for (const LoadedSpan &ls : merged.spans)
        ++counts[hexTraceId(ls.rec.traceHi, ls.rec.traceLo)];
    std::vector<std::pair<std::string, std::size_t>> out(
        counts.begin(), counts.end());
    std::stable_sort(out.begin(), out.end(),
                     [](const auto &a, const auto &b) {
                         return a.second > b.second;
                     });
    return out;
}

std::string
mergedToPerfettoJson(const MergedTrace &merged)
{
    std::string out;
    out.reserve(merged.spans.size() * 200 + 512);
    out += "{\"traceEvents\":[";
    bool first = true;
    for (std::size_t i = 0; i < merged.files.size(); ++i) {
        if (!first)
            out += ",\n";
        first = false;
        out += strFormat("{\"name\":\"process_name\",\"ph\":\"M\","
                         "\"pid\":%zu,\"tid\":0,\"args\":{\"name\":",
                         i);
        out += jsonQuote(merged.files[i].process);
        out += "}}";
    }
    for (const LoadedSpan &ls : merged.spans) {
        const SpanRecord &sp = ls.rec;
        if (!first)
            out += ",\n";
        first = false;
        out += "{\"name\":";
        out += jsonQuote(spanKindName(sp.kind));
        const std::uint64_t dur =
            sp.endUs >= sp.startUs ? sp.endUs - sp.startUs : 0;
        out += strFormat(
            ",\"cat\":\"span\",\"ph\":\"X\",\"ts\":%" PRIu64
            ",\"dur\":%" PRIu64 ",\"pid\":%zu,\"tid\":0,\"args\":{",
            sp.startUs, dur, ls.processIdx);
        out += "\"trace\":\"" + hexTraceId(sp.traceHi, sp.traceLo);
        out += "\",\"span\":\"" + hexU64(sp.spanId);
        out += "\",\"parent\":\"" + hexU64(sp.parentId);
        out += strFormat("\",\"v\":%" PRIu64 ",\"err\":%u}}",
                         sp.arg0,
                         (sp.flags & kSpanError) ? 1u : 0u);
    }
    out += strFormat("],\n\"displayTimeUnit\":\"ms\","
                     "\"otherData\":{\"processes\":%zu,"
                     "\"spans\":%zu,\"spans_dropped\":%" PRIu64
                     "}}\n",
                     merged.files.size(), merged.spans.size(),
                     merged.droppedTotal);
    return out;
}

std::string
formatMergeReport(const MergedTrace &merged)
{
    std::string out = strFormat(
        "trace_merge: %zu file(s), %zu span(s), %" PRIu64
        " dropped in rings\n",
        merged.files.size(), merged.spans.size(),
        merged.droppedTotal);
    for (std::size_t i = 0; i < merged.files.size(); ++i) {
        const SpanFile &f = merged.files[i];
        out += strFormat("  pid %zu  %-24s %5zu span(s)", i,
                         f.process.c_str(), f.spans.size());
        if (f.serverId != 0)
            out += strFormat("  server_id=%s offset=%+lld us",
                             hexU64(f.serverId).c_str(),
                             static_cast<long long>(
                                 f.appliedOffsetUs));
        out += "\n";
    }
    const auto traces = traceIdsBySpanCount(merged);
    out += strFormat("  %zu distinct trace id(s)\n", traces.size());
    for (std::size_t i = 0; i < traces.size() && i < 8; ++i) {
        std::uint64_t hi = 0, lo = 0;
        parseHexU64(traces[i].first.substr(0, 16), hi);
        parseHexU64(traces[i].first.substr(16, 16), lo);
        const TraceTreeCheck check = checkTraceTree(merged, hi, lo);
        out += strFormat(
            "    trace %s  %zu span(s), %zu root(s), %zu orphan(s), "
            "%zu process(es)\n",
            traces[i].first.c_str(), check.spans, check.roots,
            check.orphans, check.processes);
    }
    return out;
}

} // namespace chameleon
