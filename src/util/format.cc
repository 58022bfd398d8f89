#include "util/format.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/logging.hh"

namespace ibp {

std::string
formatFixed(double value, unsigned precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
    return buf;
}

ResultTable::ResultTable(std::string title, std::string rowHeader)
    : _title(std::move(title)), _rowHeader(std::move(rowHeader))
{
}

unsigned
ResultTable::addColumn(std::string label)
{
    _colLabels.push_back(std::move(label));
    for (auto &row : _cells)
        row.emplace_back();
    return numCols() - 1;
}

unsigned
ResultTable::addRow(std::string label)
{
    _rowLabels.push_back(std::move(label));
    _cells.emplace_back(numCols());
    return numRows() - 1;
}

void
ResultTable::set(unsigned row, unsigned col, double value)
{
    IBP_ASSERT(row < numRows() && col < numCols(),
               "cell (%u, %u) out of range", row, col);
    _cells[row][col] = value;
}

void
ResultTable::clear(unsigned row, unsigned col)
{
    IBP_ASSERT(row < numRows() && col < numCols(),
               "cell (%u, %u) out of range", row, col);
    _cells[row][col].reset();
}

void
ResultTable::set(const std::string &rowLabel, const std::string &colLabel,
                 double value)
{
    int row = findRow(rowLabel);
    if (row < 0)
        row = static_cast<int>(addRow(rowLabel));
    int col = findCol(colLabel);
    if (col < 0)
        col = static_cast<int>(addColumn(colLabel));
    set(static_cast<unsigned>(row), static_cast<unsigned>(col), value);
}

std::optional<double>
ResultTable::get(unsigned row, unsigned col) const
{
    IBP_ASSERT(row < numRows() && col < numCols(),
               "cell (%u, %u) out of range", row, col);
    return _cells[row][col];
}

std::optional<double>
ResultTable::get(const std::string &rowLabel,
                 const std::string &colLabel) const
{
    const int row = findRow(rowLabel);
    const int col = findCol(colLabel);
    if (row < 0 || col < 0)
        return std::nullopt;
    return _cells[row][col];
}

const std::string &
ResultTable::rowLabel(unsigned row) const
{
    IBP_ASSERT(row < numRows(), "row %u out of range", row);
    return _rowLabels[row];
}

const std::string &
ResultTable::colLabel(unsigned col) const
{
    IBP_ASSERT(col < numCols(), "col %u out of range", col);
    return _colLabels[col];
}

int
ResultTable::findRow(const std::string &label) const
{
    const auto it =
        std::find(_rowLabels.begin(), _rowLabels.end(), label);
    if (it == _rowLabels.end())
        return -1;
    return static_cast<int>(it - _rowLabels.begin());
}

int
ResultTable::findCol(const std::string &label) const
{
    const auto it =
        std::find(_colLabels.begin(), _colLabels.end(), label);
    if (it == _colLabels.end())
        return -1;
    return static_cast<int>(it - _colLabels.begin());
}

std::string
ResultTable::formatCell(unsigned row, unsigned col) const
{
    const auto &cell = _cells[row][col];
    return cell ? formatFixed(*cell, _precision) : std::string("-");
}

std::string
ResultTable::toText() const
{
    // Compute column widths: label column + one per data column.
    std::size_t label_width = _rowHeader.size();
    for (const auto &label : _rowLabels)
        label_width = std::max(label_width, label.size());

    std::vector<std::size_t> widths(numCols());
    for (unsigned c = 0; c < numCols(); ++c) {
        widths[c] = _colLabels[c].size();
        for (unsigned r = 0; r < numRows(); ++r)
            widths[c] = std::max(widths[c], formatCell(r, c).size());
    }

    // Right-align data columns with two-space gutters.
    std::ostringstream out;
    out << "== " << _title << " ==\n";
    out << _rowHeader
        << std::string(label_width - _rowHeader.size(), ' ');
    for (unsigned c = 0; c < numCols(); ++c) {
        out << "  "
            << std::string(widths[c] - _colLabels[c].size(), ' ')
            << _colLabels[c];
    }
    out << '\n';
    for (unsigned r = 0; r < numRows(); ++r) {
        out << _rowLabels[r]
            << std::string(label_width - _rowLabels[r].size(), ' ');
        for (unsigned c = 0; c < numCols(); ++c) {
            const std::string cell = formatCell(r, c);
            out << "  " << std::string(widths[c] - cell.size(), ' ')
                << cell;
        }
        out << '\n';
    }
    return out.str();
}

std::string
ResultTable::toCsv() const
{
    std::ostringstream out;
    out << _rowHeader;
    for (const auto &label : _colLabels)
        out << ',' << label;
    out << '\n';
    for (unsigned r = 0; r < numRows(); ++r) {
        out << _rowLabels[r];
        for (unsigned c = 0; c < numCols(); ++c) {
            out << ',';
            if (_cells[r][c])
                out << formatFixed(*_cells[r][c], _precision);
        }
        out << '\n';
    }
    return out.str();
}

std::string
ResultTable::toMarkdown() const
{
    std::ostringstream out;
    out << "**" << _title << "**\n\n";
    out << "| " << _rowHeader << " |";
    for (const auto &label : _colLabels)
        out << ' ' << label << " |";
    out << "\n|---|";
    for (unsigned c = 0; c < numCols(); ++c)
        out << "---|";
    out << '\n';
    for (unsigned r = 0; r < numRows(); ++r) {
        out << "| " << _rowLabels[r] << " |";
        for (unsigned c = 0; c < numCols(); ++c)
            out << ' ' << formatCell(r, c) << " |";
        out << '\n';
    }
    return out.str();
}

void
ResultTable::print() const
{
    std::fputs(toText().c_str(), stdout);
    std::fputc('\n', stdout);
    std::fflush(stdout);
}

void
ResultTable::writeCsv(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot open '%s' for writing", path.c_str());
    out << toCsv();
}

} // namespace ibp
