// Encoded array images (ir::encode_init, ir::lower_encoded): each init value
// is quantized once into its array's image, a malformed init or image is
// rejected by name before any element is read, and lowering from the images
// is exactly ir::lower from the doubles on every smoke kernel.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "eval/campaign.hpp"
#include "ir/lower.hpp"

namespace sfrv::ir {
namespace {

/// Two arrays and no loops: enough to lower a data segment.
Kernel two_arrays() {
  Kernel k;
  k.name = "two_arrays";
  k.add_array("weights", ScalarType::F16, 1, 4);
  k.add_array("bias", ScalarType::F8, 2, 2);
  return k;
}

TEST(EncodeInit, QuantizesEachArrayToItsElementType) {
  const Kernel k = two_arrays();
  // 1/3 rounds to nearest even in binary16 (0x3555); a missing entry is a
  // zero image.
  const ArrayImages images = encode_init(k, {{1.0, -2.0, 1.0 / 3, 65504.0}});
  ASSERT_EQ(images.size(), 2u);
  EXPECT_EQ(images[0], (std::vector<std::uint8_t>{0x00, 0x3c, 0x00, 0xc0, 0x55,
                                                  0x35, 0xff, 0x7b}));
  EXPECT_EQ(images[1], std::vector<std::uint8_t>(4, 0));

  // The images are the arrays' bytes in the lowered data segment.
  const LoweredKernel lk = lower_encoded(k, CodegenMode::Scalar, images);
  const auto at = [&](const std::string& name) {
    return lk.program.data.begin() +
           (lk.array_addr.at(name) - lk.program.data_base);
  };
  EXPECT_TRUE(std::equal(images[0].begin(), images[0].end(), at("weights")));
  EXPECT_TRUE(std::equal(images[1].begin(), images[1].end(), at("bias")));
}

TEST(EncodeInit, InitOfTheWrongLengthThrowsNamingKernelAndArray) {
  const Kernel k = two_arrays();
  // Three values for a four-element array: rejected before any is read,
  // through both entries (the check is not an assert, so it also holds in
  // builds without assertions).
  for (const bool through_lower : {false, true}) {
    try {
      if (through_lower) {
        (void)lower(k, CodegenMode::Scalar, {{1.0, 2.0, 3.0}});
      } else {
        (void)encode_init(k, {{1.0, 2.0, 3.0}});
      }
      ADD_FAILURE() << "a 3-value init for a 4-element array was accepted";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("two_arrays"), std::string::npos) << what;
      EXPECT_NE(what.find("weights"), std::string::npos) << what;
    }
  }
  EXPECT_THROW((void)encode_init(k, {{}, {1.0, 2.0, 3.0, 4.0, 5.0}}),
               std::invalid_argument);
}

TEST(LowerEncoded, RejectsImagesOfTheWrongShape) {
  const Kernel k = two_arrays();
  ArrayImages short_image = encode_init(k, {});
  short_image[0].pop_back();
  EXPECT_THROW((void)lower_encoded(k, CodegenMode::Scalar, short_image),
               std::invalid_argument);
  ArrayImages missing_image = encode_init(k, {});
  missing_image.pop_back();
  EXPECT_THROW((void)lower_encoded(k, CodegenMode::Scalar, missing_image),
               std::invalid_argument);
}

TEST(LowerEncoded, MatchesLowerOnEverySmokeKernel) {
  for (const auto& b : eval::eval_suite(eval::SuiteScale::Smoke)) {
    for (const auto& tc : eval::default_type_configs()) {
      const kernels::KernelSpec spec = b.bench.make(tc.tc);
      const ArrayImages images = encode_init(spec.kernel, spec.init);
      for (const auto mode :
           {CodegenMode::Scalar, CodegenMode::AutoVec, CodegenMode::ManualVec,
            CodegenMode::ManualVecExs}) {
        for (const auto& opt : {OptConfig::O0(), OptConfig::O2()}) {
          SCOPED_TRACE(b.bench.name + "/" + tc.name + "/" +
                       std::string(mode_name(mode)) + "/" +
                       std::string(opt_name(opt)));
          const LoweredKernel want = lower(spec.kernel, mode, spec.init, opt);
          const LoweredKernel got =
              lower_encoded(spec.kernel, mode, images, opt);
          EXPECT_EQ(got.program.text_words, want.program.text_words);
          EXPECT_EQ(got.program.data, want.program.data);
          EXPECT_EQ(got.program.symbols, want.program.symbols);
          EXPECT_EQ(got.array_addr, want.array_addr);
          EXPECT_EQ(got.inner_ranges, want.inner_ranges);
          EXPECT_EQ(got.mem_array, want.mem_array);
          EXPECT_EQ(got.glue.loads_forwarded, want.glue.loads_forwarded);
          EXPECT_EQ(got.glue.addis_merged, want.glue.addis_merged);
          EXPECT_EQ(got.glue.insts_deleted, want.glue.insts_deleted);
        }
      }
    }
  }
}

}  // namespace
}  // namespace sfrv::ir
