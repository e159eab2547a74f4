#include "obs/metrics_registry.hh"

#include "common/json.hh"
#include "common/log.hh"

namespace chameleon
{

void
MetricsRegistry::registerMetric(std::string name, MetricKind kind,
                                std::function<double()> getter)
{
    if (!getter)
        panic("metrics: '%s' registered without a getter",
              name.c_str());
    if (find(name))
        panic("metrics: duplicate metric '%s'", name.c_str());
    Metric m{std::move(name), kind, std::move(getter),
             Timeline("")};
    m.series = Timeline(m.name);
    entries.push_back(std::move(m));
}

const Metric *
MetricsRegistry::find(const std::string &name) const
{
    for (const Metric &m : entries)
        if (m.name == name)
            return &m;
    return nullptr;
}

double
MetricsRegistry::value(const std::string &name) const
{
    const Metric *m = find(name);
    if (!m)
        panic("metrics: unknown metric '%s'", name.c_str());
    return m->getter();
}

bool
MetricsRegistry::has(const std::string &name) const
{
    return find(name) != nullptr;
}

void
MetricsRegistry::snapshot(Cycle now)
{
    for (Metric &m : entries)
        m.series.sample(now, m.getter());
    ++snapshotCount;
}

std::string
MetricsRegistry::toCsv() const
{
    std::string out = "cycle";
    for (const Metric &m : entries)
        out += "," + m.name;
    out += "\n";
    for (std::size_t row = 0; row < snapshotCount; ++row) {
        // Every series is sampled by the same snapshot() calls, so
        // row i of each series shares one cycle stamp.
        bool first = true;
        for (const Metric &m : entries) {
            const auto &pts = m.series.samples();
            if (row >= pts.size())
                panic("metrics: series '%s' has %zu rows, want %zu",
                      m.name.c_str(), pts.size(), snapshotCount);
            if (first) {
                out += strFormat(
                    "%llu",
                    static_cast<unsigned long long>(pts[row].when));
                first = false;
            }
            out += "," + roundTripDouble(pts[row].value);
        }
        if (first) // no metrics registered: still emit the rows
            out += "0";
        out += "\n";
    }
    return out;
}

std::string
MetricsRegistry::toJson() const
{
    std::string out = "{\"metrics\":[";
    for (std::size_t i = 0; i < entries.size(); ++i) {
        if (i)
            out += ",\n";
        out += entries[i].series.toJson();
    }
    out += "]}\n";
    return out;
}

void
MetricsRegistry::writeSeries(const std::string &path) const
{
    const bool json = path.size() >= 5 &&
                      path.compare(path.size() - 5, 5, ".json") == 0;
    writeWholeFile(path, json ? toJson() : toCsv(), "metrics");
}

} // namespace chameleon
