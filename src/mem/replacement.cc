/**
 * @file
 * Replacement policy names.
 */

#include "mem/replacement.hh"

#include <stdexcept>

namespace c8t::mem
{

const char *
toString(ReplKind k)
{
    switch (k) {
      case ReplKind::Lru:
        return "lru";
      case ReplKind::TreePlru:
        return "plru";
      case ReplKind::Fifo:
        return "fifo";
      case ReplKind::Random:
        return "random";
    }
    return "?";
}

ReplKind
parseReplKind(const std::string &name)
{
    if (name == "lru")
        return ReplKind::Lru;
    if (name == "plru")
        return ReplKind::TreePlru;
    if (name == "fifo")
        return ReplKind::Fifo;
    if (name == "random")
        return ReplKind::Random;
    throw std::invalid_argument("unknown replacement policy: " + name);
}

} // namespace c8t::mem
