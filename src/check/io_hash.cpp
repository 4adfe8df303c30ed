#include "check/io_hash.hpp"

#include "hashing/crc64.hpp"

namespace icheck::check
{

HashWord
hashOutputStream(const std::vector<std::uint8_t> &stream)
{
    return hashing::Crc64::compute(stream.data(), stream.size(), 0);
}

} // namespace icheck::check
