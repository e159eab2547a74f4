#include "common/stats.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/log.hh"

namespace chameleon
{

double
Histogram::percentile(double frac) const
{
    if (total == 0 || frac <= 0.0)
        return 0.0;
    // Nearest rank: the smallest sample count covering frac, never
    // below the first sample (so p50 of one sample is that sample).
    const auto target = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               std::ceil(frac * static_cast<double>(total))));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
        seen += counts[i];
        if (seen >= target)
            return static_cast<double>(i + 1) * width;
    }
    return static_cast<double>(counts.size()) * width;
}

std::string
Histogram::toJson() const
{
    std::string out = strFormat(
        "{\"bucket_width\":%.6g,\"samples\":%llu,\"counts\":[",
        width, static_cast<unsigned long long>(total));
    for (std::size_t i = 0; i < counts.size(); ++i) {
        if (i)
            out += ",";
        out += strFormat("%llu",
                         static_cast<unsigned long long>(counts[i]));
    }
    out += "]}";
    return out;
}

double
geoMean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values) {
        if (v <= 0.0)
            panic("geoMean: non-positive sample %f", v);
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

double
arithMean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

TextTable::TextTable(std::vector<std::string> header)
{
    rows.push_back(std::move(header));
}

void
TextTable::addRow(std::vector<std::string> row)
{
    if (row.size() != rows.front().size())
        panic("TextTable: row arity %zu != header arity %zu",
              row.size(), rows.front().size());
    rows.push_back(std::move(row));
}

std::string
TextTable::str() const
{
    const std::size_t cols = rows.front().size();
    std::vector<std::size_t> widths(cols, 0);
    for (const auto &row : rows)
        for (std::size_t c = 0; c < cols; ++c)
            widths[c] = std::max(widths[c], row[c].size());

    std::string out;
    for (std::size_t r = 0; r < rows.size(); ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
            const std::string &cell = rows[r][c];
            const std::size_t pad = widths[c] - cell.size();
            if (c == 0) {
                out += cell;
                out.append(pad, ' ');
            } else {
                out.append(pad, ' ');
                out += cell;
            }
            out += (c + 1 == cols) ? "" : "  ";
        }
        out += '\n';
        if (r == 0) {
            std::size_t line = 0;
            for (std::size_t c = 0; c < cols; ++c)
                line += widths[c] + (c + 1 == cols ? 0 : 2);
            out.append(line, '-');
            out += '\n';
        }
    }
    return out;
}

void
TextTable::print() const
{
    std::fputs(str().c_str(), stdout);
}

std::string
TextTable::fmt(double v, int digits)
{
    return strFormat("%.*f", digits, v);
}

} // namespace chameleon
