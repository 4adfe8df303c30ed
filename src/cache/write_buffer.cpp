#include "cache/write_buffer.hpp"

#include "support/logging.hpp"

namespace icheck::cache
{

WriteBuffer::WriteBuffer(std::size_t capacity, DrainPolicy policy,
                         std::uint64_t seed)
    : drainPolicy(policy), rng(seed), slots(capacity)
{
    ICHECK_ASSERT(capacity > 0, "write buffer needs capacity");
}

std::size_t
WriteBuffer::pickIndex()
{
    switch (drainPolicy) {
      case DrainPolicy::Fifo:
        return 0;
      case DrainPolicy::Lifo:
        return count - 1;
      case DrainPolicy::Random:
        return static_cast<std::size_t>(rng.below(count));
    }
    ICHECK_PANIC("unknown DrainPolicy");
}

} // namespace icheck::cache
