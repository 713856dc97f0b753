// SmallFn, the simulator's event functor (sim/small_fn.h): emptiness,
// inline and heap-fallback captures, copy, move and capture lifetime.
#include "sim/small_fn.h"

#include <gtest/gtest.h>

#include <memory>
#include <utility>

namespace fl::sim {
namespace {

TEST(SmallFnTest, DefaultIsEmptyAndBoolTestable) {
    SmallFn fn;
    EXPECT_FALSE(fn);
    SmallFn null_fn(nullptr);
    EXPECT_FALSE(null_fn);
    fn = [] {};
    EXPECT_TRUE(fn);
}

TEST(SmallFnTest, InvokesInlineCapture) {
    int hits = 0;
    SmallFn fn = [&hits] { ++hits; };
    fn();
    fn();
    EXPECT_EQ(hits, 2);
}

TEST(SmallFnTest, InvokesOversizedHeapCapture) {
    // Larger than kInlineSize, forcing the heap fallback path.
    struct Big {
        unsigned char payload[SmallFn::kInlineSize * 2] = {};
    };
    Big big;
    big.payload[0] = 7;
    int seen = -1;
    SmallFn fn = [big, &seen] { seen = big.payload[0]; };
    fn();
    EXPECT_EQ(seen, 7);
}

TEST(SmallFnTest, CopyIsIndependent) {
    auto counter = std::make_shared<int>(0);
    SmallFn fn = [counter] { ++*counter; };
    SmallFn copy = fn;
    fn();
    copy();
    EXPECT_EQ(*counter, 2);
    EXPECT_TRUE(fn);
    EXPECT_TRUE(copy);
}

TEST(SmallFnTest, MoveTransfersAndEmptiesSource) {
    int hits = 0;
    SmallFn fn = [&hits] { ++hits; };
    SmallFn moved = std::move(fn);
    EXPECT_FALSE(fn);  // NOLINT(bugprone-use-after-move): pinned contract
    EXPECT_TRUE(moved);
    moved();
    EXPECT_EQ(hits, 1);
}

TEST(SmallFnTest, DestroysCaptureOnResetAndReassign) {
    auto tracker = std::make_shared<int>(42);
    std::weak_ptr<int> weak = tracker;
    {
        SmallFn fn = [tracker] {};
        tracker.reset();
        EXPECT_FALSE(weak.expired());  // capture keeps it alive
        fn = [] {};                    // reassignment destroys the old capture
        EXPECT_TRUE(weak.expired());
    }
    // And destruction destroys a live capture too.
    auto tracker2 = std::make_shared<int>(1);
    std::weak_ptr<int> weak2 = tracker2;
    {
        SmallFn fn = [tracker2] {};
        tracker2.reset();
        EXPECT_FALSE(weak2.expired());
    }
    EXPECT_TRUE(weak2.expired());
}

TEST(SmallFnTest, OversizedCaptureCopyAndMove) {
    struct Big {
        unsigned char payload[SmallFn::kInlineSize * 2] = {};
    };
    auto counter = std::make_shared<int>(0);
    Big big;
    SmallFn fn = [counter, big] { ++*counter; };
    SmallFn copy = fn;        // deep-copies the heap target
    SmallFn moved = std::move(fn);
    EXPECT_FALSE(fn);  // NOLINT(bugprone-use-after-move)
    copy();
    moved();
    EXPECT_EQ(*counter, 2);
}

}  // namespace
}  // namespace fl::sim
