// Regenerates the golden corpus under tests/j2k/corpus/ and prints the
// FNV-1a hash of each decoded image — paste those into test_golden.cpp when
// the codestream format changes on purpose.
//
//   ./corpus_gen <output-dir>
//
// The streams are produced from make_test_image (deterministic by seed), so
// the corpus is fully reproducible from the recipes in corpus_recipes.hpp.
#include "corpus_recipes.hpp"

#include <j2k/j2k.hpp>
#include <runtime/hash.hpp>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

namespace {

using runtime::fnv1a_image;

void emit(const std::string& dir, const char* name,
          const std::vector<std::uint8_t>& cs)
{
    const std::string path = dir + "/" + name;
    std::ofstream out{path, std::ios::binary};
    out.write(reinterpret_cast<const char*>(cs.data()),
              static_cast<std::streamsize>(cs.size()));
    const j2k::image img = j2k::decode(cs);
    std::printf("%-16s %6zu bytes  fnv1a=0x%016llXull\n", name, cs.size(),
                static_cast<unsigned long long>(fnv1a_image(img)));
}

}  // namespace

int main(int argc, char** argv)
{
    const std::string dir = argc > 1 ? argv[1] : "tests/j2k/corpus";
    for (const corpus::recipe& r : corpus::recipes())
        emit(dir, r.file, j2k::encode(r.source, r.params));
    return 0;
}
