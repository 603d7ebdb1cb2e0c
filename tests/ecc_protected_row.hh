/**
 * @file
 * A stored, ECC-protected, bit-interleaved row: the direct model the
 * library's fault campaigns are checked against.
 *
 * N logical words, each stored as a 72-bit SEC-DED codeword, laid out
 * physically through an InterleaveMap over the 72-bit codeword columns.
 * Writing encodes real data, striking flips a physical cell and reading
 * decodes, so a test can compare what comes back with what was stored.
 */

#ifndef C8T_TESTS_ECC_PROTECTED_ROW_HH
#define C8T_TESTS_ECC_PROTECTED_ROW_HH

#include <cassert>
#include <cstdint>
#include <vector>

#include "sram/ecc.hh"
#include "sram/interleave.hh"

namespace c8t::test
{

class EccProtectedRow
{
  public:
    /**
     * @param words  Number of 64-bit data words in the row.
     * @param degree Interleave degree (1 = non-interleaved).
     */
    EccProtectedRow(std::uint32_t words, std::uint32_t degree)
        : _map(words, sram::Codeword72::bits, degree),
          _codewords(words, sram::SecDed72::encode(0))
    {}

    /** Store @p data into logical word @p w (re-encodes the codeword). */
    void writeWord(std::uint32_t w, std::uint64_t data)
    {
        assert(w < words());
        _codewords[w] = sram::SecDed72::encode(data);
    }

    /** Decode logical word @p w. */
    sram::EccDecodeResult readWord(std::uint32_t w) const
    {
        assert(w < words());
        return sram::SecDed72::decode(_codewords[w]);
    }

    /** Flip the physical column @p col (0 .. words*72-1). */
    void strike(std::uint32_t col)
    {
        assert(col < columns());
        _codewords[_map.wordOf(col)].flip(_map.bitOf(col));
    }

    /** Logical word that physical column @p col belongs to. */
    std::uint32_t wordOfColumn(std::uint32_t col) const
    {
        return _map.wordOf(col);
    }

    /** Total physical columns. */
    std::uint32_t columns() const { return _map.columns(); }

    /** Number of logical words. */
    std::uint32_t words() const { return _map.words(); }

  private:
    sram::InterleaveMap _map;
    std::vector<sram::Codeword72> _codewords;
};

} // namespace c8t::test

#endif // C8T_TESTS_ECC_PROTECTED_ROW_HH
