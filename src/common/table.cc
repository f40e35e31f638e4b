#include "common/table.hh"

#include <cstdio>
#include <cstdint>

#include "common/contract.hh"
#include "common/env.hh"
#include "common/log.hh"

namespace desc {

std::string
fmt(double value, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
    return buf;
}

Table::Table(std::vector<std::string> columns)
    : _columns(std::move(columns))
{
}

Table &
Table::row()
{
    _rows.emplace_back();
    return *this;
}

Table &
Table::add(const std::string &cell)
{
    DESC_ASSERT(!_rows.empty(), "add() before row()");
    DESC_ASSERT(_rows.back().size() < _columns.size(), "row overflow");
    _rows.back().push_back(cell);
    return *this;
}

Table &
Table::add(double value, int precision)
{
    return add(fmt(value, precision));
}

Table &
Table::add(std::uint64_t value)
{
    return add(std::to_string(value));
}

void
Table::print(const std::string &title) const
{
    if (!title.empty())
        std::printf("== %s ==\n", title.c_str());

    // Machine-readable mirror for downstream tooling.
    if (env::boolOr(env::Var::TableCsv, false)) {
        std::fputs(toCsv().c_str(), stdout);
        std::printf("\n");
        return;
    }

    std::vector<std::size_t> widths(_columns.size());
    for (std::size_t c = 0; c < _columns.size(); c++)
        widths[c] = _columns[c].size();
    for (const auto &row : _rows) {
        for (std::size_t c = 0; c < row.size(); c++)
            widths[c] = std::max(widths[c], row[c].size());
    }

    auto print_row = [&](const std::vector<std::string> &cells) {
        for (std::size_t c = 0; c < _columns.size(); c++) {
            const std::string &cell = c < cells.size() ? cells[c] : "";
            std::printf("%-*s", int(widths[c] + 2), cell.c_str());
        }
        std::printf("\n");
    };

    print_row(_columns);
    std::size_t total = 0;
    for (auto w : widths)
        total += w + 2;
    std::printf("%s\n", std::string(total, '-').c_str());
    for (const auto &row : _rows)
        print_row(row);
    std::printf("\n");
}

std::string
Table::toCsv() const
{
    std::string out;
    auto append_row = [&](const std::vector<std::string> &cells) {
        for (std::size_t c = 0; c < cells.size(); c++) {
            if (c)
                out.push_back(',');
            out += cells[c];
        }
        out.push_back('\n');
    };
    append_row(_columns);
    for (const auto &row : _rows)
        append_row(row);
    return out;
}

} // namespace desc
