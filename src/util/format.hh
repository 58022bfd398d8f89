/**
 * @file
 * Result-table assembly and rendering.
 *
 * Every bench binary builds one or more ResultTable objects (rows =
 * benchmarks/groups or parameter values, columns = predictor
 * configurations) and renders them as aligned text for the console
 * and optionally CSV for downstream plotting. Keeping rendering here
 * keeps the experiment code free of formatting noise.
 */

#ifndef IBP_UTIL_FORMAT_HH
#define IBP_UTIL_FORMAT_HH

#include <optional>
#include <string>
#include <vector>

namespace ibp {

/**
 * A rectangular table of optional numeric cells with a title, row
 * labels and column labels. Cells hold doubles; misprediction rates
 * are stored as percentages (e.g. 24.91 for 24.91%).
 */
class ResultTable
{
  public:
    ResultTable(std::string title, std::string rowHeader);

    /** Append a column; returns its index. */
    unsigned addColumn(std::string label);

    /** Append a row; returns its index. */
    unsigned addRow(std::string label);

    /** Set a cell (row and column must already exist). */
    void set(unsigned row, unsigned col, double value);

    /** Blank a cell (row and column must already exist). */
    void clear(unsigned row, unsigned col);

    /** Set a cell by labels, adding the row/column if missing. */
    void set(const std::string &rowLabel, const std::string &colLabel,
             double value);

    std::optional<double> get(unsigned row, unsigned col) const;
    std::optional<double> get(const std::string &rowLabel,
                              const std::string &colLabel) const;

    unsigned numRows() const
    {
        return static_cast<unsigned>(_rowLabels.size());
    }
    unsigned numCols() const
    {
        return static_cast<unsigned>(_colLabels.size());
    }

    const std::string &title() const { return _title; }
    const std::string &rowHeader() const { return _rowHeader; }
    const std::string &rowLabel(unsigned row) const;
    const std::string &colLabel(unsigned col) const;

    /** Number of digits after the decimal point when rendering. */
    void setPrecision(unsigned digits) { _precision = digits; }
    unsigned precision() const { return _precision; }

    /** Render as an aligned fixed-width text table. */
    std::string toText() const;

    /** Render as RFC-4180-ish CSV (first column = row labels). */
    std::string toCsv() const;

    /** Render as a GitHub-flavoured Markdown table. */
    std::string toMarkdown() const;

    /** Print toText() to stdout. */
    void print() const;

    /** Write toCsv() to @p path (directories must exist). */
    void writeCsv(const std::string &path) const;

  private:
    int findRow(const std::string &label) const;
    int findCol(const std::string &label) const;
    std::string formatCell(unsigned row, unsigned col) const;

    std::string _title;
    std::string _rowHeader;
    std::vector<std::string> _rowLabels;
    std::vector<std::string> _colLabels;
    std::vector<std::vector<std::optional<double>>> _cells;
    unsigned _precision = 2;
};

/** Format a double with fixed precision into a string. */
std::string formatFixed(double value, unsigned precision);

} // namespace ibp

#endif // IBP_UTIL_FORMAT_HH
